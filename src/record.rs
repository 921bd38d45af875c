//! Serialized run artifacts: [`Run`]/[`Provenance`] as durable, serde
//! round-trippable records.
//!
//! The ROADMAP's scale-out direction treats "serialized `Run` provenance"
//! as the natural job unit, and the campaign stack acts on it: experiment
//! shards persist [`rats_experiments::record::RunRecord`] lines (see
//! `rats_experiments::shard`). This module gives the same durability to the
//! umbrella [`Pipeline`](crate::Pipeline) API itself — any single run can
//! be written as one JSONL line ([`RunArtifact`]) carrying its full
//! [`Provenance`], and read back bit-exactly, so ad-hoc studies can be
//! check-pointed, diffed and merged with the same guarantees campaigns get.
//!
//! The schedule is deliberately **not** stored: the pipeline is
//! deterministic, so rerunning the same configuration on the same DAG
//! reproduces it exactly. The provenance does not pin that configuration
//! on its own: it names the mapping policy (e.g. `"time-cost"`) but
//! records neither the policy's parameters (`minrho`, `allow_packing`, …)
//! nor the [`CandidatePolicy`](rats_sched::CandidatePolicy), and it holds
//! no DAG.

use serde::{Deserialize, Serialize, Value};

use rats_sched::{AllocParams, AreaPolicy};

use crate::pipeline::{Provenance, Run};

fn area_policy_name(p: AreaPolicy) -> &'static str {
    match p {
        AreaPolicy::CpaClassic => "cpa-classic",
        AreaPolicy::Hcpa => "hcpa",
        AreaPolicy::Mcpa => "mcpa",
    }
}

fn area_policy_from_name(name: &str) -> Option<AreaPolicy> {
    match name {
        "cpa-classic" => Some(AreaPolicy::CpaClassic),
        "hcpa" => Some(AreaPolicy::Hcpa),
        "mcpa" => Some(AreaPolicy::Mcpa),
        _ => None,
    }
}

impl Serialize for Provenance {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        t.insert("platform", &self.platform)
            .insert("policy", &self.policy)
            .insert("area_policy", area_policy_name(self.alloc_params.policy))
            .insert("cp_includes_comm", &self.alloc_params.cp_includes_comm)
            .insert("seed", &self.seed);
        t
    }
}

impl Deserialize for Provenance {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let area_name: String = v.field("area_policy")?;
        let policy = area_policy_from_name(&area_name)
            .ok_or_else(|| serde::Error::new(format!("unknown area policy `{area_name}`")))?;
        Ok(Self {
            platform: v.field("platform")?,
            policy: v.field("policy")?,
            alloc_params: AllocParams {
                policy,
                cp_includes_comm: v.field("cp_includes_comm")?,
            },
            seed: v.field("seed")?,
        })
    }
}

/// The serializable projection of a [`Run`]: full provenance plus the
/// simulated headline numbers. Floating-point values survive the JSON
/// round trip bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifact {
    /// How the run was produced: platform, policy display name,
    /// allocation parameters and seed (not enough to regenerate it alone;
    /// see the module docs).
    pub provenance: Provenance,
    /// Simulated makespan in seconds.
    pub makespan: f64,
    /// Total work in processor-seconds.
    pub total_work: f64,
    /// Bytes that crossed the network.
    pub network_bytes: f64,
}

impl RunArtifact {
    /// Renders the artifact as one compact JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("artifacts always serialize")
    }

    /// Parses an artifact from one JSONL line.
    pub fn from_jsonl(line: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(line)
    }
}

impl From<&Run> for RunArtifact {
    fn from(run: &Run) -> Self {
        Self {
            provenance: run.provenance.clone(),
            makespan: run.makespan(),
            total_work: run.total_work(),
            network_bytes: run.network_bytes(),
        }
    }
}

impl Serialize for RunArtifact {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        t.insert("kind", "run-artifact")
            .insert("provenance", &self.provenance)
            .insert("makespan", &self.makespan)
            .insert("total_work", &self.total_work)
            .insert("network_bytes", &self.network_bytes);
        t
    }
}

impl Deserialize for RunArtifact {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let kind: String = v.field("kind")?;
        if kind != "run-artifact" {
            return Err(serde::Error::new(format!(
                "expected a run artifact, got kind `{kind}`"
            )));
        }
        Ok(Self {
            provenance: v.field("provenance")?,
            makespan: v.field("makespan")?,
            total_work: v.field("total_work")?,
            network_bytes: v.field("network_bytes")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use rats_daggen::fft_dag;
    use rats_model::CostParams;
    use rats_platform::ClusterSpec;
    use rats_sched::MappingStrategy;

    #[test]
    fn provenance_round_trips() {
        for policy in [AreaPolicy::CpaClassic, AreaPolicy::Hcpa, AreaPolicy::Mcpa] {
            let p = Provenance {
                platform: "grillon".into(),
                policy: "time-cost".into(),
                alloc_params: AllocParams {
                    policy,
                    cp_includes_comm: policy == AreaPolicy::Mcpa,
                },
                seed: 99,
            };
            let v = p.serialize();
            assert_eq!(Provenance::deserialize(&v).unwrap(), p);
        }
    }

    #[test]
    fn run_artifact_round_trips_bit_exactly() {
        let run = Pipeline::from_spec(&ClusterSpec::grillon())
            .strategy(MappingStrategy::rats_time_cost(0.5, true))
            .seed(42)
            .run(&fft_dag(4, &CostParams::tiny(), 42));
        let artifact = RunArtifact::from(&run);
        let line = artifact.to_jsonl();
        assert!(!line.contains('\n'));
        let back = RunArtifact::from_jsonl(&line).unwrap();
        assert_eq!(back.makespan.to_bits(), run.makespan().to_bits());
        assert_eq!(back.total_work.to_bits(), run.total_work().to_bits());
        assert_eq!(back.network_bytes.to_bits(), run.network_bytes().to_bits());
        assert_eq!(back.provenance, run.provenance);
    }

    #[test]
    fn rejects_foreign_kinds() {
        assert!(RunArtifact::from_jsonl("{\"kind\":\"run\"}").is_err());
        assert!(RunArtifact::from_jsonl("[]").is_err());
    }
}
