//! Serialization of whole scenario populations.
//!
//! A campaign's scenario suite is a deterministic function of `(suite,
//! seed)`, but generating it is not free — the paper suite builds 557 DAGs,
//! and custom populations can be far larger. When many worker processes
//! execute shards of one campaign on a shared filesystem, each of them
//! regenerating the same population is pure waste. This module gives the
//! population a durable form: the dispatcher writes it once under the
//! campaign's manifest directory and every worker reads it back instead of
//! regenerating.
//!
//! The format is line-oriented text built on the task-graph format of
//! [`rats_dag::to_text`] / [`rats_dag::from_text`]:
//!
//! ```text
//! # rats scenario population
//! meta format 1 seed <u64> suite <tag> count <n>
//! begin <id> <family> <scenario name…>
//! <task/edge lines of rats_dag::to_text>
//! end
//! …one begin/end block per scenario…
//! digest <16-hex FNV-1a of everything above>
//! ```
//!
//! Floats go through the shortest-round-trip `Display` form, so a reloaded
//! population is **bit-identical** to the generated one — schedules and
//! simulated makespans computed from the cache match the regenerating path
//! exactly (pinned by tests here and in the dispatch crate).

use std::fmt;

use rats_dag::{from_text, to_text};

use crate::suite::{AppFamily, Scenario};

/// Current population file format version.
const FORMAT: u64 = 1;

/// A parse/validation failure, with the 1-based line it was detected on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationError {
    /// 1-based line number (0 when the failure is not line-specific).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PopulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "population: {}", self.message)
        } else {
            write!(f, "population line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for PopulationError {}

/// A deserialized population: the provenance header plus the scenarios.
#[derive(Debug, Clone)]
pub struct Population {
    /// The base seed the population was generated from.
    pub seed: u64,
    /// Suite tag (`"paper"`, `"mini"`, or a custom label).
    pub suite: String,
    /// The scenarios, ids dense and in order.
    pub scenarios: Vec<Scenario>,
}

/// FNV-1a 64 over raw bytes — the content digest protecting population
/// files, also reused by `rats-workloads` for custom suite tags (and the
/// same algorithm the campaign spec hashing uses), so a format change
/// moves every dependent digest in lockstep.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The resident-cache key of a population: an FNV-1a content hash over the
/// `(suite, seed)` identity, rendered as 16 hex digits.
///
/// A population is a deterministic function of exactly these two values
/// (custom suite tags are themselves content hashes of the workload spec),
/// so this key is a *content* key: two specs that would generate the same
/// scenarios share it, and a long-lived server (`campaign serve`) uses it
/// to serve repeated submissions from one resident population instead of
/// regenerating or re-reading `scenarios.cache`.
pub fn population_key(suite: &str, seed: u64) -> String {
    let mut bytes = Vec::with_capacity(suite.len() + 9);
    bytes.extend_from_slice(suite.as_bytes());
    bytes.push(0x1f); // unit separator: "ab"+1 never collides with "a"+b1
    bytes.extend_from_slice(&seed.to_le_bytes());
    format!("{:016x}", fnv1a(&bytes))
}

impl Population {
    /// This population's resident-cache key (see [`population_key`]).
    pub fn cache_key(&self) -> String {
        population_key(&self.suite, self.seed)
    }
}

/// Renders a population to the text format. `suite` is a free-form tag the
/// reader can validate against (the dispatcher uses the spec's suite name).
pub fn write_population(scenarios: &[Scenario], seed: u64, suite: &str) -> String {
    use std::fmt::Write as _;
    debug_assert!(
        !suite.chars().any(char::is_whitespace),
        "suite tags are single tokens"
    );
    let mut body = String::new();
    let _ = writeln!(body, "# rats scenario population");
    let _ = writeln!(
        body,
        "meta format {FORMAT} seed {seed} suite {suite} count {}",
        scenarios.len()
    );
    for s in scenarios {
        let _ = writeln!(body, "begin {} {} {}", s.id, s.family.name(), s.name);
        body.push_str(&to_text(&s.dag));
        let _ = writeln!(body, "end");
    }
    let digest = fnv1a(body.as_bytes());
    let _ = writeln!(body, "digest {digest:016x}");
    body
}

/// Parses a population file, verifying the trailing digest, the declared
/// count and that scenario ids are dense and in order.
pub fn read_population(text: &str) -> Result<Population, PopulationError> {
    let err = |line: usize, message: String| PopulationError { line, message };

    // Split off and verify the digest line first: it covers every byte
    // before it, so any torn write or bit rot is caught up front.
    let trimmed = text
        .strip_suffix('\n')
        .ok_or_else(|| err(0, "missing trailing newline (torn write?)".into()))?;
    let (body_end, digest_line) = match trimmed.rfind('\n') {
        Some(pos) => (pos + 1, &trimmed[pos + 1..]),
        None => (0, trimmed),
    };
    let digest_hex = digest_line
        .strip_prefix("digest ")
        .ok_or_else(|| err(0, "missing digest trailer (torn write?)".into()))?;
    let expected = u64::from_str_radix(digest_hex.trim(), 16)
        .map_err(|e| err(0, format!("bad digest: {e}")))?;
    let body = &text[..body_end];
    let actual = fnv1a(body.as_bytes());
    if actual != expected {
        return Err(err(
            0,
            format!("digest mismatch: file says {expected:016x}, content hashes to {actual:016x}"),
        ));
    }

    let mut lines = body.lines().enumerate();
    let mut header: Option<(u64, String, usize)> = None;
    let mut scenarios: Vec<Scenario> = Vec::new();
    while let Some((i, raw)) = lines.next() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.first().copied() {
            Some("meta") => {
                // meta format 1 seed S suite T count N — key/value pairs.
                let mut format = None;
                let mut seed = None;
                let mut suite = None;
                let mut count = None;
                for pair in fields[1..].chunks(2) {
                    let [key, value] = pair else {
                        return Err(err(line_no, "meta needs key/value pairs".into()));
                    };
                    match *key {
                        "format" => {
                            format = Some(
                                value
                                    .parse::<u64>()
                                    .map_err(|e| err(line_no, format!("bad format: {e}")))?,
                            )
                        }
                        "seed" => {
                            seed = Some(
                                value
                                    .parse::<u64>()
                                    .map_err(|e| err(line_no, format!("bad seed: {e}")))?,
                            )
                        }
                        "suite" => suite = Some(value.to_string()),
                        "count" => {
                            count = Some(
                                value
                                    .parse::<usize>()
                                    .map_err(|e| err(line_no, format!("bad count: {e}")))?,
                            )
                        }
                        other => return Err(err(line_no, format!("unknown meta key `{other}`"))),
                    }
                }
                let format =
                    format.ok_or_else(|| err(line_no, "meta is missing `format`".into()))?;
                if format != FORMAT {
                    return Err(err(
                        line_no,
                        format!("unsupported format {format} (this build reads {FORMAT})"),
                    ));
                }
                header = Some((
                    seed.ok_or_else(|| err(line_no, "meta is missing `seed`".into()))?,
                    suite.ok_or_else(|| err(line_no, "meta is missing `suite`".into()))?,
                    count.ok_or_else(|| err(line_no, "meta is missing `count`".into()))?,
                ));
            }
            Some("begin") => {
                if header.is_none() {
                    return Err(err(line_no, "scenario before the meta line".into()));
                }
                if fields.len() < 3 {
                    return Err(err(
                        line_no,
                        "begin needs `<id> <family> <name…>`".to_string(),
                    ));
                }
                let id: usize = fields[1]
                    .parse()
                    .map_err(|e| err(line_no, format!("bad scenario id: {e}")))?;
                let family = AppFamily::from_name(fields[2])
                    .ok_or_else(|| err(line_no, format!("unknown family `{}`", fields[2])))?;
                // The name is everything after the family token, verbatim.
                let name = line
                    .splitn(4, char::is_whitespace)
                    .nth(3)
                    .unwrap_or("")
                    .to_string();
                if id != scenarios.len() {
                    return Err(err(
                        line_no,
                        format!(
                            "scenario id {id} out of order (expected {})",
                            scenarios.len()
                        ),
                    ));
                }
                // Collect the graph lines up to the matching `end`.
                let mut graph_text = String::new();
                let mut closed = false;
                for (_, graph_raw) in lines.by_ref() {
                    if graph_raw.trim() == "end" {
                        closed = true;
                        break;
                    }
                    graph_text.push_str(graph_raw);
                    graph_text.push('\n');
                }
                if !closed {
                    return Err(err(line_no, format!("scenario {id} has no `end`")));
                }
                let dag = from_text(&graph_text)
                    .map_err(|e| err(line_no, format!("scenario {id}: {e}")))?;
                scenarios.push(Scenario {
                    id,
                    name,
                    family,
                    dag,
                });
            }
            Some(other) => return Err(err(line_no, format!("unknown record kind `{other}`"))),
            None => unreachable!("blank lines were skipped"),
        }
    }

    let (seed, suite, count) = header.ok_or_else(|| err(0, "missing meta line".into()))?;
    if scenarios.len() != count {
        return Err(err(
            0,
            format!(
                "meta declares {count} scenarios, file holds {}",
                scenarios.len()
            ),
        ));
    }
    Ok(Population {
        seed,
        suite,
        scenarios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{mini_suite, MINI_COUNT};
    use rats_model::CostParams;

    fn sample() -> Vec<Scenario> {
        mini_suite(&CostParams::paper(), 77)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let scenarios = sample();
        let text = write_population(&scenarios, 77, "mini");
        let pop = read_population(&text).unwrap();
        assert_eq!(pop.seed, 77);
        assert_eq!(pop.suite, "mini");
        assert_eq!(pop.scenarios.len(), MINI_COUNT);
        for (a, b) in scenarios.iter().zip(&pop.scenarios) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.family, b.family);
            assert_eq!(a.dag.num_tasks(), b.dag.num_tasks());
            assert_eq!(a.dag.num_edges(), b.dag.num_edges());
            for (x, y) in a.dag.task_ids().zip(b.dag.task_ids()) {
                let (ca, cb) = (a.dag.task(x).cost, b.dag.task(y).cost);
                assert_eq!(ca.m_elements(), cb.m_elements());
                assert_eq!(
                    ca.ops_per_element().to_bits(),
                    cb.ops_per_element().to_bits()
                );
                assert_eq!(ca.alpha().to_bits(), cb.alpha().to_bits());
            }
            for (x, y) in a.dag.edge_ids().zip(b.dag.edge_ids()) {
                assert_eq!(a.dag.edge(x).src, b.dag.edge(y).src);
                assert_eq!(a.dag.edge(x).dst, b.dag.edge(y).dst);
                assert_eq!(a.dag.edge(x).bytes.to_bits(), b.dag.edge(y).bytes.to_bits());
            }
        }
    }

    #[test]
    fn population_keys_separate_suite_and_seed() {
        let a = population_key("mini", 7);
        assert_eq!(a.len(), 16);
        assert_eq!(a, population_key("mini", 7), "key is deterministic");
        assert_ne!(a, population_key("mini", 8));
        assert_ne!(a, population_key("paper", 7));
        let pop = Population {
            seed: 7,
            suite: "mini".into(),
            scenarios: Vec::new(),
        };
        assert_eq!(pop.cache_key(), a);
    }

    #[test]
    fn digest_catches_corruption() {
        let text = write_population(&sample(), 1, "mini");
        // Flip one digit inside a task line.
        let corrupt = text.replacen("task", "tusk", 1);
        let e = read_population(&corrupt).unwrap_err();
        assert!(e.message.contains("digest mismatch"), "{e}");
    }

    #[test]
    fn torn_writes_are_detected() {
        let text = write_population(&sample(), 1, "mini");
        // Truncation drops the digest trailer (or its newline).
        let e = read_population(&text[..text.len() / 2]).unwrap_err();
        assert!(e.message.contains("torn write"), "{e}");
        let e = read_population(text.strip_suffix('\n').unwrap()).unwrap_err();
        assert!(e.message.contains("torn write"), "{e}");
        assert!(read_population("").is_err());
    }

    #[test]
    fn count_and_order_are_validated() {
        let scenarios = sample();
        let text = write_population(&scenarios, 1, "mini");
        // Drop the first scenario block: ids are now out of order.
        let begin2 = text.match_indices("begin ").nth(1).unwrap().0;
        let header_end = text.find("begin ").unwrap();
        let mut mutilated = text[..header_end].to_string();
        mutilated.push_str(&text[begin2..]);
        // Re-sign so we get past the digest check.
        let body_end = mutilated.rfind("digest ").unwrap();
        let body = mutilated[..body_end].to_string();
        let resigned = format!("{body}digest {:016x}\n", super::fnv1a(body.as_bytes()));
        let e = read_population(&resigned).unwrap_err();
        assert!(e.message.contains("out of order"), "{e}");
    }

    #[test]
    fn scenario_names_with_spaces_survive() {
        let mut scenarios = sample();
        scenarios.truncate(1);
        scenarios[0].name = "layered n=25 w=0.2 d=0.8 r=0.2 s=0".to_string();
        let text = write_population(&scenarios, 5, "custom");
        let pop = read_population(&text).unwrap();
        assert_eq!(pop.scenarios[0].name, scenarios[0].name);
        assert_eq!(pop.suite, "custom");
    }
}
