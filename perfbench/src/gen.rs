//! Seeded workload inputs: the combos a cold workload sweeps.
//!
//! Seed 0 is the paper's Table 8 restricted to the workload's classes.
//! Any other seed draws the same number of distinct combos per class
//! under Table 7's class rules: C1/C2 are four copies of one class-A or
//! class-C app, and C3–C6 put two different class-A apps on cores 0–1
//! followed by their B/C/D mix.
//!
//! A draw keeps each class's Table 8 app multiset: the seed re-deals
//! which apps share a combo and which core each runs on, but every app
//! runs as often as in Table 8. The work of a run therefore hardly
//! depends on the seed, so run-to-run spread measures the host and the
//! code, not the luck of the draw.

use snug_workloads::{all_combos, AppClass, Combo, ComboClass};

/// SplitMix64: a tiny, fully specified generator, so one seed draws the
/// same inputs on every platform and toolchain.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Whether `combo` follows its class's Table 7 recipe.
pub fn obeys_class_rules(combo: &Combo) -> bool {
    let count = |class| combo.apps.iter().filter(|a| a.class() == class).count();
    let [p0, p1, p2, p3] = combo.apps;
    let homogeneous = combo.apps.iter().all(|&x| x == p0);
    let two_a = p0 != p1 && p0.class() == AppClass::A && p1.class() == AppClass::A;
    let tail = |x: AppClass, y: AppClass| p2.class() == x && p3.class() == y && p2 != p3;
    match combo.class {
        ComboClass::C1 => homogeneous && count(AppClass::A) == 4,
        ComboClass::C2 => homogeneous && count(AppClass::C) == 4,
        ComboClass::C3 => two_a && tail(AppClass::C, AppClass::C),
        ComboClass::C4 => two_a && tail(AppClass::B, AppClass::C),
        ComboClass::C5 => two_a && tail(AppClass::D, AppClass::D),
        ComboClass::C6 => two_a && tail(AppClass::B, AppClass::D),
    }
}

/// Re-deal one class's Table 8 combos: shuffle the apps of each slot
/// group (cores 0–1; core 2; core 3 — cores 2–3 pooled where they share
/// a class; all four cores of a stress combo move together) and deal
/// them back until every combo obeys the class rules and no two repeat.
fn redeal(class: ComboClass, table8: &[Combo], rng: &mut SplitMix64) -> Vec<Combo> {
    let groups: &[&[usize]] = match class {
        ComboClass::C1 | ComboClass::C2 => &[],
        ComboClass::C3 | ComboClass::C5 => &[&[0, 1], &[2, 3]],
        ComboClass::C4 | ComboClass::C6 => &[&[0, 1], &[2], &[3]],
    };
    if groups.is_empty() {
        let mut combos = table8.to_vec();
        rng.shuffle(&mut combos);
        return combos;
    }
    loop {
        let mut combos = table8.to_vec();
        for slots in groups {
            let mut pool: Vec<_> = combos
                .iter()
                .flat_map(|c| slots.iter().map(move |&s| c.apps[s]))
                .collect();
            rng.shuffle(&mut pool);
            for (i, app) in pool.into_iter().enumerate() {
                combos[i / slots.len()].apps[slots[i % slots.len()]] = app;
            }
        }
        let distinct = (0..combos.len()).all(|i| !combos[..i].contains(&combos[i]));
        if distinct && combos.iter().all(obeys_class_rules) {
            return combos;
        }
    }
}

/// The combos a workload over `classes` sweeps at `seed`, grouped by
/// class in the order given.
pub fn combos_for(classes: &[ComboClass], seed: u64) -> Vec<Combo> {
    let mut rng = SplitMix64::new(seed);
    classes
        .iter()
        .flat_map(|&class| {
            let table8: Vec<Combo> = all_combos()
                .into_iter()
                .filter(|c| c.class == class)
                .collect();
            if seed == 0 {
                table8
            } else {
                redeal(class, &table8, &mut rng)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snug_workloads::Benchmark;

    const MEM: [ComboClass; 4] = [
        ComboClass::C1,
        ComboClass::C2,
        ComboClass::C3,
        ComboClass::C4,
    ];
    const COMPUTE: [ComboClass; 2] = [ComboClass::C5, ComboClass::C6];

    /// Sorted apps of one class's combos (the multiset a draw keeps).
    fn apps(combos: &[Combo], class: ComboClass) -> Vec<&'static str> {
        let mut v: Vec<&str> = combos
            .iter()
            .filter(|c| c.class == class)
            .flat_map(|c| c.apps.map(Benchmark::name))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn seed_zero_is_exactly_table8() {
        let table8 = all_combos();
        assert_eq!(combos_for(&MEM, 0), table8[..14].to_vec());
        assert_eq!(combos_for(&COMPUTE, 0), table8[14..].to_vec());
        assert_eq!(combos_for(&MEM, 0).len() * 9, 126);
        assert_eq!(combos_for(&COMPUTE, 0).len() * 9, 63);
    }

    #[test]
    fn table8_itself_obeys_the_class_rules() {
        assert!(all_combos().iter().all(obeys_class_rules));
    }

    #[test]
    fn other_seeds_obey_class_rules_counts_and_app_multisets() {
        let table8 = all_combos();
        for seed in 1..200 {
            for classes in [&MEM[..], &COMPUTE[..]] {
                let combos = combos_for(classes, seed);
                for &class in classes {
                    let of_class: Vec<&Combo> =
                        combos.iter().filter(|c| c.class == class).collect();
                    let wanted = table8.iter().filter(|c| c.class == class).count();
                    assert_eq!(of_class.len(), wanted, "seed {seed} class {class:?}");
                    for (i, combo) in of_class.iter().enumerate() {
                        assert!(obeys_class_rules(combo), "seed {seed}: {}", combo.label());
                        assert!(!of_class[..i].contains(combo), "seed {seed}: duplicate");
                    }
                    assert_eq!(apps(&combos, class), apps(&table8, class), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn rules_reject_recipe_violations() {
        use Benchmark::*;
        let bad = [
            Combo {
                class: ComboClass::C1,
                apps: [Ammp, Ammp, Ammp, Parser],
            },
            Combo {
                class: ComboClass::C3,
                apps: [Ammp, Ammp, Bzip2, Mcf],
            },
            Combo {
                class: ComboClass::C3,
                apps: [Ammp, Parser, Mcf, Mcf],
            },
            Combo {
                class: ComboClass::C4,
                apps: [Ammp, Parser, Bzip2, Apsi],
            },
            Combo {
                class: ComboClass::C6,
                apps: [Ammp, Apsi, Parser, Gzip],
            },
        ];
        for combo in bad {
            assert!(!obeys_class_rules(&combo), "{}", combo.label());
        }
    }

    #[test]
    fn other_seeds_are_deterministic_and_vary() {
        assert_eq!(combos_for(&MEM, 7), combos_for(&MEM, 7));
        assert_eq!(combos_for(&COMPUTE, 7), combos_for(&COMPUTE, 7));
        assert_ne!(combos_for(&MEM, 7), combos_for(&MEM, 8));
        assert_ne!(combos_for(&COMPUTE, 7), combos_for(&COMPUTE, 8));
    }
}
