//! Stuck-at fault sites and collapse-free enumeration.
//!
//! The wafer simulator models manufacturing defects as stuck-at faults on
//! cell outputs — the standard abstraction for the open/short defects an
//! immature TFT process produces. [`sites`] enumerates every injectable
//! site; [`random_sites`] draws a defect set for one die.

use crate::netlist::{Net, Netlist};

/// One injectable stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSite {
    /// The faulted net (a cell output).
    pub net: Net,
    /// `true` for stuck-at-1, `false` for stuck-at-0.
    pub stuck_at_one: bool,
}

/// Every stuck-at site of the netlist (two per cell output).
#[must_use]
pub fn sites(netlist: &Netlist) -> Vec<FaultSite> {
    let mut v = Vec::with_capacity(netlist.cells().len() * 2);
    for cell in netlist.cells() {
        v.push(FaultSite {
            net: cell.output,
            stuck_at_one: false,
        });
        v.push(FaultSite {
            net: cell.output,
            stuck_at_one: true,
        });
    }
    v
}

/// Draw `count` distinct random fault sites from `seed`, a
/// [`flexshard::splitmix64`] stream (so `flexgate` needs no RNG
/// dependency).
#[must_use]
pub fn random_sites(netlist: &Netlist, count: usize, seed: u64) -> Vec<FaultSite> {
    let all = sites(netlist);
    if all.is_empty() || count == 0 {
        return Vec::new();
    }
    let mut state = seed
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(0x9E37_79B9);
    let mut picked = Vec::with_capacity(count);
    let mut used = std::collections::HashSet::new();
    // Rejection sampling: a plain `draw % len` over-weights the low
    // indices whenever `len` does not divide 2^64. Draws at or above the
    // largest multiple of `len` are discarded instead.
    let len = all.len() as u64;
    let zone = u64::MAX - (u64::MAX % len);
    while picked.len() < count && used.len() < all.len() {
        let draw = flexshard::splitmix64(&mut state);
        if draw >= zone {
            continue;
        }
        let idx = (draw % len) as usize;
        if used.insert(idx) {
            picked.push(all[idx]);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::sim::BatchSim;

    fn adder() -> Netlist {
        let mut n = Netlist::new();
        let a = n.inputs("a", 4);
        let b = n.inputs("b", 4);
        let zero = n.const0();
        let (sum, c) = n.ripple_adder(&a, &b, zero);
        n.outputs("sum", &sum);
        n.output("carry", c);
        n
    }

    #[test]
    fn two_sites_per_cell() {
        let n = adder();
        assert_eq!(sites(&n).len(), n.cells().len() * 2);
    }

    #[test]
    fn random_sites_are_distinct_and_deterministic() {
        let n = adder();
        let a = random_sites(&n, 10, 42);
        let b = random_sites(&n, 10, 42);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len());
        let c = random_sites(&n, 10, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn most_faults_are_detectable_by_exhaustive_stimulus() {
        // sanity for the yield methodology: sweeping all inputs detects
        // the large majority of single stuck-at faults in the adder
        let n = adder();
        let all = sites(&n);
        let mut sim = BatchSim::new(&n).unwrap();
        // lane 0 clean; lanes 1..64 get one fault each (batched)
        let mut detected = 0usize;
        for chunk in all.chunks(63) {
            sim.clear_faults();
            for (i, site) in chunk.iter().enumerate() {
                sim.inject(site.net, site.stuck_at_one, 1 << (i + 1));
            }
            let mut seen = vec![false; chunk.len()];
            for a in 0..16u64 {
                for b in 0..16u64 {
                    sim.set_input_value("a", a, !0);
                    sim.set_input_value("b", b, !0);
                    sim.settle();
                    let lanes_sum = sim.output_lanes("sum");
                    let lanes_carry = sim.output_lanes("carry");
                    for (i, seen_i) in seen.iter_mut().enumerate() {
                        let lane = i + 1;
                        let mut diff = false;
                        for bit in lanes_sum.iter().chain(&lanes_carry) {
                            if ((bit >> lane) ^ bit) & 1 == 1 {
                                diff = true;
                            }
                        }
                        if diff {
                            *seen_i = true;
                        }
                    }
                }
            }
            detected += seen.iter().filter(|&&s| s).count();
        }
        let coverage = detected as f64 / all.len() as f64;
        assert!(coverage > 0.9, "stuck-at coverage {coverage}");
    }
}
