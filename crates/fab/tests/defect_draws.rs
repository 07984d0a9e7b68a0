//! Pins `flexgate::fault::random_sites` on the fabricated FlexiCore4
//! netlist: the wafer tester draws every die's defects through it, so
//! the published wafers' screen outcomes rest on these exact draws.

use flexgate::fault::random_sites;
use flexicore::isa::features::FeatureSet;

#[test]
fn fc4_defect_draws_are_pinned() {
    let netlist = flexrtl::build(4, FeatureSet::BASE);
    let pinned: [(u64, [(usize, bool); 6]); 4] = [
        (
            0,
            [
                (35, true),
                (188, false),
                (63, false),
                (105, true),
                (204, true),
                (85, false),
            ],
        ),
        (
            1,
            [
                (138, true),
                (274, true),
                (43, false),
                (124, true),
                (105, true),
                (156, false),
            ],
        ),
        (
            0x1234_5678_9ABC_DEF0,
            [
                (107, true),
                (263, true),
                (139, false),
                (142, true),
                (202, false),
                (122, true),
            ],
        ),
        (
            u64::MAX,
            [
                (246, true),
                (248, false),
                (200, false),
                (28, true),
                (256, true),
                (169, true),
            ],
        ),
    ];
    for (seed, want) in pinned {
        let drawn: Vec<(usize, bool)> = random_sites(&netlist, 6, seed)
            .iter()
            .map(|site| (site.net.index(), site.stuck_at_one))
            .collect();
        assert_eq!(drawn, want, "defect seed {seed:#x}");
    }
}
