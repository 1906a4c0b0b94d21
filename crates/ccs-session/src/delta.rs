//! The mutation vocabulary of a session and its JSON wire codec.

use ccs_core::json::{JsonValue, JsonWriter};
use ccs_core::{CcsError, JobShape, Result};

fn err(msg: impl Into<String>) -> CcsError {
    CcsError::invalid_parameter(format!("delta: {}", msg.into()))
}

/// A job to add: its processing time, class label and (optionally) a
/// moldable shape menu.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewJob {
    /// Processing time (must be positive).
    pub processing: u64,
    /// Class label.  Labels are free-form `u32`s — a label unseen so far
    /// opens a new class.
    pub class: u32,
    /// Declared moldable shape alternatives `(machines, time)`; empty means
    /// "no declared menu" (the job runs as the sequential `(1, p)` shape
    /// under the moldable model and is untouched under the paper models).
    pub shapes: Vec<JobShape>,
}

impl NewJob {
    /// A job without a declared shape menu.
    pub fn new(processing: u64, class: u32) -> NewJob {
        NewJob {
            processing,
            class,
            shapes: Vec::new(),
        }
    }
}

/// One mutation of a [`crate::SessionInstance`].
///
/// Deltas are *atomic*: application validates the whole delta against the
/// current session state first and mutates only if every part is valid, so
/// a rejected delta leaves the session exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceDelta {
    /// Append jobs; each receives the next stable external id.
    AddJobs(Vec<NewJob>),
    /// Remove jobs by their stable external ids (distinct, all present).
    RemoveJobs(Vec<u64>),
    /// Add machines (must be positive).
    AddMachines(u64),
    /// Relabel every job of class `from` to class `to`, merging the two
    /// classes.  `from` must currently have jobs; `from == to` is a no-op.
    RetypeClass {
        /// The label being dissolved.
        from: u32,
        /// The label absorbing its jobs.
        to: u32,
    },
}

/// Writes a delta in its wire form — an object with exactly one of the
/// members `add_jobs`, `remove_jobs`, `add_machines`, `retype_class`:
///
/// ```json
/// {"add_jobs":[{"p":5,"class":2}]}
/// {"add_jobs":[{"class":2,"p":9,"shapes":[[1,9],[3,4]]}]}
/// {"remove_jobs":[0,3]}
/// {"add_machines":2}
/// {"retype_class":{"from":2,"to":0}}
/// ```
///
/// The `shapes` member (a moldable shape menu, `[machines, time]` pairs) is
/// omitted for jobs without a declared menu, so unshaped sessions keep
/// their exact pre-extension wire bytes.
pub fn write_delta(w: &mut JsonWriter, delta: &InstanceDelta) {
    w.object(|w| match delta {
        InstanceDelta::AddJobs(jobs) => {
            w.key("add_jobs").array(|w| {
                for job in jobs {
                    w.object(|w| {
                        w.key("class").u64(u64::from(job.class));
                        w.key("p").u64(job.processing);
                        if !job.shapes.is_empty() {
                            w.key("shapes").array(|w| {
                                for &(k, t) in &job.shapes {
                                    w.array(|w| {
                                        w.u64(k).u64(t);
                                    });
                                }
                            });
                        }
                    });
                }
            });
        }
        InstanceDelta::RemoveJobs(ids) => {
            w.key("remove_jobs").array(|w| {
                for &id in ids {
                    w.u64(id);
                }
            });
        }
        InstanceDelta::AddMachines(count) => {
            w.key("add_machines").u64(*count);
        }
        InstanceDelta::RetypeClass { from, to } => {
            w.key("retype_class").object(|w| {
                w.key("from").u64(u64::from(*from));
                w.key("to").u64(u64::from(*to));
            });
        }
    });
}

/// Parses the wire form written by [`write_delta`].  Exactly one delta
/// member must be present; unknown or ambiguous objects are rejected.
pub fn delta_from_json(value: &JsonValue) -> Result<InstanceDelta> {
    let members = value
        .as_object()
        .ok_or_else(|| err("a delta must be an object"))?;
    if members.len() != 1 {
        return Err(err(
            "a delta must have exactly one of 'add_jobs', 'remove_jobs', \
             'add_machines', 'retype_class'",
        ));
    }
    if let Some(jobs) = value.get("add_jobs") {
        let jobs = jobs
            .as_array()
            .ok_or_else(|| err("'add_jobs' must be an array"))?
            .iter()
            .map(|job| {
                let processing = job
                    .get("p")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| err("each added job needs a count 'p'"))?;
                let class = job
                    .get("class")
                    .and_then(JsonValue::as_u64)
                    .and_then(|c| u32::try_from(c).ok())
                    .ok_or_else(|| err("each added job needs a u32 'class'"))?;
                let shapes = match job.get("shapes") {
                    None => Vec::new(),
                    Some(shapes) => shapes
                        .as_array()
                        .ok_or_else(|| err("'shapes' must be an array of [machines, time]"))?
                        .iter()
                        .map(|pair| {
                            let pair = pair
                                .as_array()
                                .filter(|p| p.len() == 2)
                                .ok_or_else(|| err("each shape must be a [machines, time] pair"))?;
                            let k = pair[0]
                                .as_u64()
                                .filter(|&k| k > 0)
                                .ok_or_else(|| err("shape machine counts must be positive"))?;
                            let t = pair[1]
                                .as_u64()
                                .filter(|&t| t > 0)
                                .ok_or_else(|| err("shape times must be positive"))?;
                            Ok((k, t))
                        })
                        .collect::<Result<Vec<JobShape>>>()?,
                };
                Ok(NewJob {
                    processing,
                    class,
                    shapes,
                })
            })
            .collect::<Result<Vec<NewJob>>>()?;
        return Ok(InstanceDelta::AddJobs(jobs));
    }
    if let Some(ids) = value.get("remove_jobs") {
        let ids = ids
            .as_array()
            .ok_or_else(|| err("'remove_jobs' must be an array"))?
            .iter()
            .map(|id| {
                id.as_u64()
                    .ok_or_else(|| err("'remove_jobs' entries must be job ids"))
            })
            .collect::<Result<Vec<u64>>>()?;
        return Ok(InstanceDelta::RemoveJobs(ids));
    }
    if let Some(count) = value.get("add_machines") {
        return Ok(InstanceDelta::AddMachines(count.as_u64().ok_or_else(
            || err("'add_machines' must be a non-negative count"),
        )?));
    }
    if let Some(retype) = value.get("retype_class") {
        let label = |key: &str| {
            retype
                .get(key)
                .and_then(JsonValue::as_u64)
                .and_then(|c| u32::try_from(c).ok())
                .ok_or_else(|| err(format!("'retype_class' needs a u32 '{key}'")))
        };
        return Ok(InstanceDelta::RetypeClass {
            from: label("from")?,
            to: label("to")?,
        });
    }
    Err(err(
        "a delta must have exactly one of 'add_jobs', 'remove_jobs', \
         'add_machines', 'retype_class'",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::json::parse;

    #[test]
    fn every_variant_roundtrips() {
        let deltas = [
            InstanceDelta::AddJobs(vec![NewJob::new(5, 2), NewJob::new(9, 0)]),
            InstanceDelta::AddJobs(vec![NewJob {
                processing: 9,
                class: 1,
                shapes: vec![(1, 9), (3, 4)],
            }]),
            InstanceDelta::RemoveJobs(vec![0, 3, 17]),
            InstanceDelta::AddMachines(2),
            InstanceDelta::RetypeClass { from: 2, to: 0 },
        ];
        for delta in deltas {
            let line = JsonWriter::line(|w| write_delta(w, &delta)).into_string();
            let back = delta_from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(back, delta, "{line}");
            // Canonical: a second trip yields identical bytes.
            assert_eq!(JsonWriter::line(|w| write_delta(w, &back)).as_str(), line);
        }
    }

    #[test]
    fn malformed_deltas_are_rejected() {
        for bad in [
            "[]",
            "{}",
            r#"{"add_jobs":[{"p":5,"class":1}],"add_machines":1}"#,
            r#"{"warp_jobs":[1]}"#,
            r#"{"add_jobs":[{"class":1}]}"#,
            r#"{"add_jobs":[{"p":5}]}"#,
            r#"{"add_jobs":[{"p":-5,"class":1}]}"#,
            r#"{"add_jobs":[{"p":5,"class":1,"shapes":7}]}"#,
            r#"{"add_jobs":[{"p":5,"class":1,"shapes":[[1]]}]}"#,
            r#"{"add_jobs":[{"p":5,"class":1,"shapes":[[0,5]]}]}"#,
            r#"{"add_jobs":[{"p":5,"class":1,"shapes":[[2,0]]}]}"#,
            r#"{"remove_jobs":[-1]}"#,
            r#"{"remove_jobs":7}"#,
            r#"{"add_machines":-2}"#,
            r#"{"retype_class":{"from":1}}"#,
            r#"{"retype_class":{"from":1,"to":99999999999}}"#,
        ] {
            assert!(delta_from_json(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }
}
