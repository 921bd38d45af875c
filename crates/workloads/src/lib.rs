//! Declarative workload synthesis: custom scenario populations and cluster
//! topologies as data.
//!
//! The paper's evaluation is one fixed 557-configuration suite on three
//! Grid'5000 clusters. This crate opens the scenario space: a
//! [`WorkloadSpec`] is a TOML/JSON-friendly description of
//!
//! * a **DAG population** — a list of [`FamilySpec`] strata (the paper's
//!   layered/irregular/FFT/Strassen families plus chains, fork-joins and
//!   in/out-trees), each with a count or weight and per-parameter
//!   [`Dist`]ributions (fixed / choice / uniform / log-uniform) over size,
//!   width, density and communication-to-computation ratio, and
//! * a **cluster population** — [`TopologyGenSpec`] generators emitting
//!   named flat, hierarchical, star and bus platforms over processor-count
//!   × node-speed sweeps (heterogeneous-speed platform sets in the spirit
//!   of arXiv:0706.2146, star/bus platforms after arXiv:cs/0610131).
//!
//! The spec's population size is known *without generating a single DAG*
//! ([`WorkloadSpec::len`]), so campaign job grids stay flat and
//! deterministic; generation ([`WorkloadSpec::generate`]) walks the same
//! per-scenario seed stream as the paper suite and is **byte-identical
//! across processes** for equal `(spec, seed)` — the property the
//! population cache, sharding and dispatch layers build on.
//!
//! `rats_experiments::spec::SuiteSpec::Custom` embeds a `WorkloadSpec` in
//! an experiment spec; see the README's "Custom workloads" section for a
//! worked campaign document.

#![forbid(unsafe_code)]

mod dist;
mod family;
mod topology;

pub use dist::{Dist, IntDist};
pub use family::{FamilyKind, FamilySpec};
pub use topology::{TopoKind, TopologyGenSpec};

use rats_daggen::suite::Scenario;
use rats_daggen::{fnv1a, scenario_seed};
use rats_model::CostParams;
use rats_platform::ClusterSpec;
use serde::{Deserialize, Serialize, Value};

/// A declarative scenario-synthesis spec: families + topologies.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Population size to apportion over families by `weight`; families
    /// with an explicit `count` are excluded from the apportionment.
    /// Required iff at least one family has no `count`.
    pub total: Option<usize>,
    /// The population strata, in document order.
    pub families: Vec<FamilySpec>,
    /// Named cluster generators (may be empty: a custom population can run
    /// on the paper clusters alone).
    pub topologies: Vec<TopologyGenSpec>,
}

impl WorkloadSpec {
    /// An empty spec (invalid until at least one family is added).
    pub fn new() -> Self {
        Self {
            total: None,
            families: Vec::new(),
            topologies: Vec::new(),
        }
    }

    /// Checks families, counts and topologies.
    pub fn validate(&self) -> Result<(), String> {
        if self.families.is_empty() {
            return Err("a custom workload needs at least one family".into());
        }
        for f in &self.families {
            f.validate()?;
        }
        let weighted = self.families.iter().filter(|f| f.count.is_none()).count();
        match self.total {
            None if weighted > 0 => {
                return Err(format!(
                    "{weighted} famil{} have no `count`: set per-family counts or a \
                     spec-level `total` to apportion by weight",
                    if weighted == 1 { "y" } else { "ies" }
                ));
            }
            Some(0) => return Err("`total` must be positive".into()),
            Some(t) => {
                let explicit: usize = self.families.iter().filter_map(|f| f.count).sum();
                if weighted == 0 && explicit != t {
                    return Err(format!(
                        "`total` is {t} but the explicit family counts sum to {explicit}; \
                         drop `total` or make them agree"
                    ));
                }
                if weighted > 0 && t <= explicit {
                    return Err(format!(
                        "`total` is {t} but explicit family counts already claim \
                         {explicit}, leaving nothing for the {weighted} weighted \
                         famil{} — raise `total` or give every family a `count`",
                        if weighted == 1 { "y" } else { "ies" }
                    ));
                }
            }
            _ => {}
        }
        if self.is_empty() {
            return Err("the population is empty (all counts are zero)".into());
        }
        // Starved strata are rejected, not truncated: every weighted family
        // must resolve to at least one scenario (an explicit `count = 0` is
        // the author's own choice and stays allowed).
        for (fam, &count) in self.families.iter().zip(&self.counts()) {
            if fam.count.is_none() && count == 0 {
                return Err(format!(
                    "family `{}` resolves to zero scenarios — its weight share of \
                     `total` rounds to nothing; raise `total` or give it a `count`",
                    fam.kind.as_str()
                ));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for t in &self.topologies {
            t.validate()?;
            for name in t.cluster_names() {
                if ["chti", "grillon", "grelon"].contains(&name.as_str()) {
                    return Err(format!(
                        "generated cluster `{name}` shadows a paper cluster preset"
                    ));
                }
                if !seen.insert(name.clone()) {
                    return Err(format!("duplicate generated cluster name `{name}`"));
                }
            }
        }
        Ok(())
    }

    /// Resolved per-family scenario counts, in family order. Families with
    /// an explicit `count` keep it; the rest split `total −
    /// Σ explicit` by weight via largest-remainder apportionment (ties to
    /// the earlier family), so counts are deterministic and sum exactly.
    pub fn counts(&self) -> Vec<usize> {
        let explicit: usize = self.families.iter().filter_map(|f| f.count).sum();
        let pool = self.total.unwrap_or(explicit).saturating_sub(explicit);
        let weights: Vec<f64> = self
            .families
            .iter()
            .map(|f| if f.count.is_none() { f.weight } else { 0.0 })
            .collect();
        let wsum: f64 = weights.iter().sum();
        let mut counts: Vec<usize> = Vec::with_capacity(self.families.len());
        let mut fractions: Vec<(usize, f64)> = Vec::new();
        let mut assigned = 0usize;
        for (i, f) in self.families.iter().enumerate() {
            match f.count {
                Some(c) => counts.push(c),
                None => {
                    let share = pool as f64 * weights[i] / wsum;
                    let base = share.floor() as usize;
                    counts.push(base);
                    assigned += base;
                    fractions.push((i, share - base as f64));
                }
            }
        }
        // Hand the remainder to the largest fractional parts (stable order
        // breaks ties toward earlier families).
        let mut remainder = pool - assigned;
        fractions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (i, _) in fractions {
            if remainder == 0 {
                break;
            }
            counts[i] += 1;
            remainder -= 1;
        }
        counts
    }

    /// Total number of scenarios — known without generating any DAG, so
    /// job grids and merge coverage checks stay cheap.
    pub fn len(&self) -> usize {
        self.counts().iter().sum()
    }

    /// Whether the population is empty (only for unvalidated specs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A content-derived suite tag, `custom-<8 hex>`: two different custom
    /// workloads never share a tag, so a serialized population
    /// (`rats_daggen::population`) carries which spec generated it and
    /// cache validation can reject a population from a sibling campaign.
    /// Identical specs (however they were parsed) share the tag.
    pub fn tag(&self) -> String {
        let digest = fnv1a(format!("{:?}", self.serialize()).as_bytes());
        format!("custom-{:08x}", digest & 0xffff_ffff)
    }

    /// Generates the population: for each family in order, `counts()[i]`
    /// scenarios with dense ids, parameters and structure drawn from the
    /// suite-standard per-scenario seed stream. Deterministic and
    /// byte-identical across processes for equal `(spec, base_seed)`.
    pub fn generate(&self, cost: &CostParams, base_seed: u64) -> Vec<Scenario> {
        let counts = self.counts();
        let mut out = Vec::with_capacity(counts.iter().sum());
        for (fam, &count) in self.families.iter().zip(&counts) {
            for sample in 0..count {
                let id = out.len();
                // Two decorrelated streams per scenario: one for the
                // parameter draws, one for the structure/cost generator.
                let param_seed = scenario_seed(base_seed, 2 * id);
                let gen_seed = scenario_seed(base_seed, 2 * id + 1);
                let (dag, desc) = fam.generate_one(cost, param_seed, gen_seed);
                out.push(Scenario {
                    id,
                    name: format!("{} {desc} s={sample}", fam.kind.as_str()),
                    family: fam.kind.app_family(),
                    dag,
                });
            }
        }
        out
    }

    /// Materializes every generated cluster, in topology order.
    pub fn clusters(&self) -> Vec<ClusterSpec> {
        self.topologies.iter().flat_map(|t| t.generate()).collect()
    }

    /// A plain-text population census: per-family resolved counts and the
    /// generated cluster inventory — what `campaign describe` prints.
    /// Computed from the spec alone (no DAG generation).
    pub fn census(&self) -> String {
        use std::fmt::Write as _;
        let counts = self.counts();
        let total: usize = counts.iter().sum();
        let mut out = format!("population: {total} scenarios in {} strata\n", counts.len());
        for (fam, &count) in self.families.iter().zip(&counts) {
            let share = if total > 0 {
                100.0 * count as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<10} {count:>6} scenarios ({share:>5.1} %){}",
                fam.kind.as_str(),
                if fam.count.is_some() {
                    ""
                } else {
                    "  [weighted]"
                }
            );
        }
        if self.topologies.is_empty() {
            out.push_str("clusters: none generated (paper presets only)\n");
        } else {
            let clusters = self.clusters();
            let _ = writeln!(out, "clusters: {} generated", clusters.len());
            for c in &clusters {
                let topo = match &c.topology {
                    rats_platform::TopologySpec::Flat => "flat".to_string(),
                    rats_platform::TopologySpec::Hierarchical { cabinets, .. } => {
                        format!("hierarchical ({cabinets} cabinets)")
                    }
                    rats_platform::TopologySpec::Star { hub } => {
                        format!("star (hub {} MB/s)", hub.bandwidth_bps / 1e6)
                    }
                    rats_platform::TopologySpec::Bus { bus } => {
                        format!("bus ({} MB/s)", bus.bandwidth_bps / 1e6)
                    }
                };
                let _ = writeln!(
                    out,
                    "  {:<18} {:>4} procs at {:.3} GFlop/s, {topo}",
                    c.name, c.num_procs, c.gflops
                );
            }
        }
        out
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl Serialize for WorkloadSpec {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        t.insert("families", &self.families);
        if let Some(total) = self.total {
            t.insert("total", &total);
        }
        if !self.topologies.is_empty() {
            t.insert("topologies", &self.topologies);
        }
        t
    }
}

impl Deserialize for WorkloadSpec {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            total: v.field_or("total", None)?,
            families: v.field("families")?,
            topologies: v.field_or("topologies", Vec::new())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_daggen::{read_population, write_population};

    fn sample_spec() -> WorkloadSpec {
        let mut chain = FamilySpec::new(FamilyKind::Chain);
        chain.count = Some(2);
        chain.n = IntDist::Choice(vec![5, 9]);
        let mut fj = FamilySpec::new(FamilyKind::ForkJoin);
        fj.weight = 2.0;
        fj.stages = IntDist::Range { min: 2, max: 3 };
        fj.branches = IntDist::Fixed(4);
        let mut tree = FamilySpec::new(FamilyKind::InTree);
        tree.weight = 1.0;
        tree.depth = IntDist::Fixed(3);
        tree.ccr = Dist::LogUniform { min: 0.5, max: 2.0 };
        let mut star = TopologyGenSpec::new("edge", TopoKind::Star);
        star.procs = vec![9];
        star.backbone_mbps = Some(250.0);
        let mut het = TopologyGenSpec::new("het", TopoKind::Flat);
        het.procs = vec![8, 16];
        het.gflops = vec![2.0, 6.0];
        WorkloadSpec {
            total: Some(8),
            families: vec![chain, fj, tree],
            topologies: vec![star, het],
        }
    }

    #[test]
    fn counts_apportion_exactly() {
        let spec = sample_spec();
        spec.validate().unwrap();
        // 2 explicit + 6 apportioned 2:1 → [2, 4, 2].
        assert_eq!(spec.counts(), vec![2, 4, 2]);
        assert_eq!(spec.len(), 8);
        // Remainders go to the largest fractional part.
        let mut uneven = spec.clone();
        uneven.total = Some(9);
        let counts = uneven.counts();
        assert_eq!(counts.iter().sum::<usize>(), 9);
        assert_eq!(counts[0], 2, "explicit counts never move");
    }

    #[test]
    fn len_matches_generation_without_generating() {
        let spec = sample_spec();
        let scenarios = spec.generate(&CostParams::tiny(), 42);
        assert_eq!(scenarios.len(), spec.len());
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.id, i, "ids must be dense and ordered");
            s.dag.validate().unwrap();
        }
    }

    #[test]
    fn generation_is_byte_identical_for_equal_specs() {
        // Two independently constructed (and one document-round-tripped)
        // specs with the same seed must serialize to byte-identical
        // population files — the cross-process determinism guarantee.
        let a = sample_spec();
        let b = sample_spec();
        let c = WorkloadSpec::deserialize(&a.serialize()).unwrap();
        assert_eq!(a, c);
        let cost = CostParams::paper();
        let pa = write_population(&a.generate(&cost, 7), 7, &a.tag());
        let pb = write_population(&b.generate(&cost, 7), 7, &b.tag());
        let pc = write_population(&c.generate(&cost, 7), 7, &c.tag());
        assert_eq!(pa, pb);
        assert_eq!(pa, pc);
        // And a different seed moves it.
        let pd = write_population(&a.generate(&cost, 8), 8, &a.tag());
        assert_ne!(pa, pd);
    }

    #[test]
    fn custom_populations_round_trip_the_population_format() {
        let spec = sample_spec();
        let scenarios = spec.generate(&CostParams::paper(), 19);
        let text = write_population(&scenarios, 19, &spec.tag());
        let pop = read_population(&text).unwrap();
        assert_eq!(pop.suite, spec.tag());
        assert_eq!(pop.scenarios.len(), scenarios.len());
        for (a, b) in scenarios.iter().zip(&pop.scenarios) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.family, b.family);
            assert_eq!(a.dag.num_tasks(), b.dag.num_tasks());
            assert_eq!(a.dag.num_edges(), b.dag.num_edges());
            for (x, y) in a.dag.edge_ids().zip(b.dag.edge_ids()) {
                assert_eq!(a.dag.edge(x).bytes.to_bits(), b.dag.edge(y).bytes.to_bits());
            }
        }
    }

    #[test]
    fn tags_separate_different_workloads() {
        let a = sample_spec();
        let mut b = sample_spec();
        b.families[1].branches = IntDist::Fixed(5);
        assert_ne!(a.tag(), b.tag());
        assert!(a.tag().starts_with("custom-"));
        assert!(!a.tag().contains(char::is_whitespace));
    }

    #[test]
    fn validation_rejects_incoherent_specs() {
        assert!(WorkloadSpec::new().validate().is_err(), "no families");

        let mut spec = sample_spec();
        spec.total = None; // weighted families but no total
        assert!(spec.validate().unwrap_err().contains("total"));

        let mut spec = sample_spec();
        for f in &mut spec.families {
            f.count = Some(1);
        }
        spec.total = Some(99); // disagrees with explicit sum
        assert!(spec.validate().is_err());

        // A total the explicit counts already exhaust leaves weighted
        // strata silently empty — rejected, not truncated.
        let mut spec = sample_spec();
        spec.total = Some(2); // == the chain family's explicit count
        assert!(spec.validate().unwrap_err().contains("weighted"));
        spec.total = Some(1); // even smaller
        assert!(spec.validate().is_err());

        // A pool too small for every weighted family starves one stratum
        // to zero — rejected, not silently truncated.
        let mut spec = sample_spec();
        spec.total = Some(3); // pool of 1 over weights 2:1 → in-tree gets 0
        assert_eq!(spec.counts(), vec![2, 1, 0]);
        assert!(spec.validate().unwrap_err().contains("zero scenarios"));

        let mut spec = sample_spec();
        spec.topologies[1].name = "edge".into();
        spec.topologies[1].procs = vec![9];
        spec.topologies[1].gflops = vec![4.0];
        assert!(spec.validate().unwrap_err().contains("duplicate"));

        let mut spec = sample_spec();
        spec.topologies[0].name = "grillon".into();
        assert!(spec.validate().unwrap_err().contains("shadows"));
    }

    #[test]
    fn census_reports_counts_and_clusters() {
        let spec = sample_spec();
        let census = spec.census();
        assert!(census.contains("8 scenarios in 3 strata"), "{census}");
        assert!(census.contains("fork-join"), "{census}");
        assert!(census.contains("edge"), "{census}");
        assert!(census.contains("het-p8x2"), "{census}");
        assert!(census.contains("star"), "{census}");
    }

    #[test]
    fn spec_documents_round_trip() {
        let spec = sample_spec();
        let back = WorkloadSpec::deserialize(&spec.serialize()).unwrap();
        assert_eq!(back, spec);
    }
}
