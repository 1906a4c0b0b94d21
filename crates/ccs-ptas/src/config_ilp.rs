//! The configuration ILP (0)–(5) every scheme decides for a guess, and the
//! machines its certificate unfolds into.
//!
//! The program is the aggregated one of the paper (see the crate
//! documentation): one count `x_K` per configuration, one count per module
//! column of every large class, and one 0/1 choice `z` per small class and
//! group `(h, b)`.  Only two things depend on the placement model, and the
//! scheme supplies both through [`LargeClass`]: what a module column is (one
//! module size in the splittable case, one multiset of rounded job sizes in
//! the non-preemptive case) and constraint (4), which ties a large class's
//! modules to its load or its jobs.

use crate::config::{enumerate_configs_ctx, Config};
use crate::ilp::{IlpOutcome, IntProgram};
use crate::scale::GuessScale;
use ccs_approx::round_robin::{descending_order, round_robin_by_weight};
use ccs_core::{ClassId, Instance, Rational, Result, SolveContext};
use std::collections::BTreeMap;

/// Node budget for the configuration ILP search (per guess).
const ILP_NODE_BUDGET: usize = 2_000_000;

/// A large class as the configuration ILP sees it.
pub(crate) struct LargeClass {
    pub(crate) class: ClassId,
    /// Upper bound on the count of every module column.
    pub(crate) bounds: Vec<i64>,
    /// The rows of constraint (4): `(module column, coefficient)` for every
    /// non-zero coefficient, and the right-hand side.
    pub(crate) demand: Vec<(Vec<(usize, i64)>, i64)>,
}

/// The configuration ILP of one guess.
pub(crate) struct ConfigIlp {
    /// The size (units of `δ²T`) of every module column.
    pub(crate) columns: Vec<u64>,
    /// At most this many modules per configuration (`c*`).
    pub(crate) max_modules: u64,
    pub(crate) large: Vec<LargeClass>,
    pub(crate) small: Vec<ClassId>,
}

/// The certificate of an accepted guess.
#[derive(Debug, Clone)]
pub(crate) struct Certificate {
    /// The enumerated configurations.
    pub(crate) configs: Vec<Config>,
    /// How many machines run each configuration (they sum to `m`).
    pub(crate) config_counts: Vec<u64>,
    /// The size of every module column.
    pub(crate) columns: Vec<u64>,
    /// For every large class, how many modules of each column it uses.
    pub(crate) large: Vec<(ClassId, Vec<u64>)>,
    /// For every small class, the group `(h, b)` it is assigned to.
    pub(crate) small: Vec<(ClassId, (u64, u64))>,
}

impl ConfigIlp {
    /// Enumerates the configurations over the module sizes, builds the
    /// program and solves it.  `None` means the guess is rejected: the
    /// program is infeasible, or its search ran out of nodes.
    pub(crate) fn decide(
        self,
        inst: &Instance,
        scale: &GuessScale,
        ctx: &SolveContext,
    ) -> Result<Option<Certificate>> {
        let m = inst.machines();
        let c_eff = inst.effective_class_slots();
        let mut module_sizes = self.columns.clone();
        module_sizes.sort_unstable();
        module_sizes.dedup();
        let configs =
            enumerate_configs_ctx(&module_sizes, scale.tbar_units, self.max_modules, ctx)?;
        // Groups (h, b) present among the configurations.
        let mut groups: Vec<(u64, u64)> = configs.iter().map(Config::group).collect();
        groups.sort_unstable();
        groups.dedup();

        let mut ilp = IntProgram::new();
        let x: Vec<usize> = configs.iter().map(|_| ilp.add_var(0, m as i64)).collect();
        let y: Vec<Vec<usize>> = self
            .large
            .iter()
            .map(|class| class.bounds.iter().map(|&hi| ilp.add_var(0, hi)).collect())
            .collect();
        let z: Vec<Vec<usize>> = self
            .small
            .iter()
            .map(|_| groups.iter().map(|_| ilp.add_var(0, 1)).collect())
            .collect();

        // One pass over the configurations and the module columns collects
        // the terms of (1) by module size and the members of every group.
        let size_index = |q: u64| {
            module_sizes
                .binary_search(&q)
                .expect("every part and column is a module size")
        };
        let mut cover: Vec<Vec<(usize, i64)>> = vec![Vec::new(); module_sizes.len()];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
        for (config, &v) in configs.iter().zip(&x) {
            for (q, multiplicity) in config.runs() {
                cover[size_index(q)].push((v, multiplicity as i64));
            }
            let group = groups.binary_search(&config.group());
            members[group.expect("groups come from the configurations")].push(v);
        }
        for vars in &y {
            for (&size, &v) in self.columns.iter().zip(vars) {
                cover[size_index(size)].push((v, -1));
            }
        }

        // (0) number of configurations = number of machines.
        ilp.add_eq(x.iter().map(|&v| (v, 1)).collect(), m as i64);
        // (1) chosen configurations cover exactly the chosen modules, by size.
        for terms in cover {
            ilp.add_eq(terms, 0);
        }
        // (4) the modules of every large class cover its demand.
        for (class, vars) in self.large.iter().zip(&y) {
            for (terms, rhs) in &class.demand {
                if terms.is_empty() {
                    if *rhs != 0 {
                        return Ok(None);
                    }
                    continue;
                }
                ilp.add_eq(
                    terms.iter().map(|&(column, a)| (vars[column], a)).collect(),
                    *rhs,
                );
            }
        }
        // (5) every small class goes to exactly one group.
        for vars in &z {
            ilp.add_eq(vars.iter().map(|&v| (v, 1)).collect(), 1);
        }
        // (2) + (3) slot and space constraints per group; small loads are
        // measured on the fine grid δ²T/c.  Without a small class a row has
        // only non-positive terms over a right-hand side of 0, so it can
        // never tighten a bound and is left out.
        let small_units: Vec<i64> = self
            .small
            .iter()
            .map(|&u| scale.fine_units_ceil(Rational::from(inst.class_load(u)), c_eff) as i64)
            .collect();
        if !z.is_empty() {
            for (gi, (&(h, b), members)) in groups.iter().zip(&members).enumerate() {
                // (2): Σ_u z_u,g ≤ (c - b) Σ x_K
                let mut slot_terms: Vec<(usize, i64)> =
                    z.iter().map(|vars| (vars[gi], 1)).collect();
                slot_terms.extend(members.iter().map(|&v| (v, -((c_eff - b) as i64))));
                ilp.add_le(slot_terms, 0);
                // (3): Σ_u s_u z_u,g ≤ (T̄ - h) Σ x_K
                let capacity_fine = ((scale.tbar_units - h) * c_eff) as i64;
                let mut space_terms: Vec<(usize, i64)> = z
                    .iter()
                    .zip(&small_units)
                    .map(|(vars, &s)| (vars[gi], s))
                    .collect();
                space_terms.extend(members.iter().map(|&v| (v, -capacity_fine)));
                ilp.add_le(space_terms, 0);
            }
        }

        let sol = match ilp.solve_ctx(ILP_NODE_BUDGET, ctx)? {
            IlpOutcome::Feasible(sol) => sol,
            IlpOutcome::Infeasible | IlpOutcome::Unknown => return Ok(None),
        };
        let counts = |vars: &[usize]| vars.iter().map(|&v| sol[v] as u64).collect();
        Ok(Some(Certificate {
            config_counts: counts(&x),
            large: self
                .large
                .iter()
                .zip(&y)
                .map(|(class, vars)| (class.class, counts(vars)))
                .collect(),
            small: self
                .small
                .iter()
                .zip(&z)
                .map(|(&class, vars)| {
                    let gi = vars
                        .iter()
                        .position(|&v| sol[v] == 1)
                        .expect("constraint (5)");
                    (class, groups[gi])
                })
                .collect(),
            configs,
            columns: self.columns,
        }))
    }
}

/// The machines of a certificate, one per chosen configuration, each with
/// the module slots it still has open.
pub(crate) struct Machines {
    open: Vec<Vec<u64>>,
    groups: Vec<(u64, u64)>,
}

impl Machines {
    pub(crate) fn new(cert: &Certificate) -> Self {
        let mut machines = Machines {
            open: Vec::new(),
            groups: Vec::new(),
        };
        for (config, &count) in cert.configs.iter().zip(&cert.config_counts) {
            for _ in 0..count {
                machines.open.push(config.parts.clone());
                machines.groups.push(config.group());
            }
        }
        machines
    }

    /// Takes an open module slot of size `q` on the first machine that has
    /// one, returning that machine.
    pub(crate) fn take(&mut self, q: u64) -> Option<usize> {
        let machine = self.open.iter().position(|slots| slots.contains(&q))?;
        let slot = self.open[machine].iter().position(|&s| s == q)?;
        self.open[machine].remove(slot);
        Some(machine)
    }

    /// Places the small classes: within every group, round robin in
    /// non-ascending load order over the group's machines (Lemma 3).
    /// Returns `(class, machine)` in placement order — group by group,
    /// heaviest class first, the order in which the splittable schedule
    /// lists the classes' pieces — or `None` when a group has no machine.
    pub(crate) fn place_small(
        &self,
        inst: &Instance,
        small: &[(ClassId, (u64, u64))],
    ) -> Option<Vec<(ClassId, usize)>> {
        let mut by_group: BTreeMap<(u64, u64), Vec<ClassId>> = BTreeMap::new();
        for &(class, group) in small {
            by_group.entry(group).or_default().push(class);
        }
        let mut placed = Vec::with_capacity(small.len());
        for (group, classes) in by_group {
            let members: Vec<usize> = (0..self.groups.len())
                .filter(|&i| self.groups[i] == group)
                .collect();
            if members.is_empty() {
                return None;
            }
            let loads: Vec<Rational> = classes
                .iter()
                .map(|&u| Rational::from(inst.class_load(u)))
                .collect();
            let targets = round_robin_by_weight(&loads, members.len() as u64);
            for i in descending_order(&loads) {
                placed.push((classes[i], members[targets[i] as usize]));
            }
        }
        Some(placed)
    }
}
