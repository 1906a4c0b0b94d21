//! The metric catalogue — workload and metric names, units and better
//! directions, read from `BENCHMARK.json` at the repository root — and the
//! result line built from it.  `perfbench/metrics.json` adds why each
//! workload and metric exists, and the default and held-out seeds.

use ccs_core::json::{self, JsonValue};
use std::collections::BTreeMap;

/// The benchmark definition the harness reports against.
pub const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// One metric's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// Workload names and metric lists of `BENCHMARK.json`.
#[derive(Debug, PartialEq, Eq)]
pub struct Catalogue {
    /// Workload names in order.
    pub workloads: Vec<String>,
    /// Metrics reported without tracing.
    pub end_to_end: Vec<Metric>,
    /// Metrics reported by the traced run.
    pub per_layer: Vec<Metric>,
}

fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string '{key}'"))
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing array '{key}'"))
}

impl Catalogue {
    /// Parses the names, units and directions of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Catalogue, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(&doc, key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: field(m, "name")?.to_string(),
                        unit: field(m, "unit")?.to_string(),
                        better: field(m, "better")?.to_string(),
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| field(w, "name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The catalogue of the repository's `BENCHMARK.json`.
    pub fn builtin() -> Catalogue {
        Catalogue::parse(BENCHMARK).expect("BENCHMARK.json is valid")
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `metrics` with its unit.  Fails if `values` lacks a listed metric, holds
/// an unlisted one, or holds a non-finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !metrics.iter().any(|m| m.name == **k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut out = JsonValue::object();
    out.set("correct", correct);
    out.set("attempted", attempted);
    out.set("failed", failed);
    let mut reported = JsonValue::object();
    for metric in metrics {
        let value = *values
            .get(metric.name.as_str())
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", metric.name));
        }
        let mut entry = JsonValue::object();
        entry.set("value", JsonValue::Float(value));
        entry.set("unit", metric.unit.as_str());
        reported.set(&metric.name, entry);
    }
    out.set("metrics", reported);
    Ok(out.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn benchmark_json_names_the_harness_workloads() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(Catalogue::builtin().workloads, names);
    }

    #[test]
    fn every_workload_and_metric_has_a_why() {
        let doc = json::parse(include_str!("../metrics.json")).unwrap();
        let why = doc.get("why").and_then(JsonValue::as_object).unwrap();
        let catalogue = Catalogue::builtin();
        let names: Vec<&str> = catalogue
            .workloads
            .iter()
            .map(String::as_str)
            .chain(catalogue.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(catalogue.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for name in &names {
            let text = why.get(*name).and_then(JsonValue::as_str);
            assert!(text.is_some_and(|t| !t.is_empty()), "no why for {name}");
        }
        assert_eq!(
            why.len(),
            names.len(),
            "a why names nothing in BENCHMARK.json"
        );
        let seeds = doc.get("seeds").unwrap();
        assert!(seeds.get("default").is_some() && seeds.get("held_out").is_some());
    }

    #[test]
    fn result_line_reports_exactly_the_catalogue() {
        let metrics = Catalogue::builtin().end_to_end;
        let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
        let names: Vec<&'static str> = metrics
            .iter()
            .map(|m| &*Box::leak(m.name.clone().into_boxed_str()))
            .collect();
        for (i, name) in names.iter().enumerate() {
            values.insert(name, 1.5 + i as f64);
        }
        let line = result_line(true, 10, 0, &metrics, &values).unwrap();
        let doc = json::parse(&line).unwrap();
        let printed = doc.get("metrics").and_then(JsonValue::as_object).unwrap();
        assert_eq!(printed.len(), metrics.len());
        for metric in &metrics {
            let entry = &printed[&metric.name];
            assert_eq!(
                entry.get("unit").and_then(JsonValue::as_str),
                Some(metric.unit.as_str())
            );
        }
        values.remove(names[0]);
        assert!(result_line(true, 10, 0, &metrics, &values).is_err());
        values.insert(names[0], 1.0);
        values.insert("bogus", 1.0);
        assert!(result_line(true, 10, 0, &metrics, &values).is_err());
    }
}
