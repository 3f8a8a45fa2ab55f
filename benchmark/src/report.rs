//! Printing and checking results: the result line of a run, `--all`
//! (one process per workload), `validate` (results against the metric
//! tables and `BENCHMARK.json`) and `compare` (two result sets against
//! the regression bounds).

use crate::json::{quote, Json};
use crate::run::{Outcome, RunArgs};
use crate::spec::{self, Metric};
use crate::workloads::NAMES;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// The one JSON object a run ends with.
pub fn result_line(outcome: &Outcome, table: &[Metric]) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::unit_of(table, name).expect("every reported metric is in its table");
            // `{}` prints the shortest digits that round-trip: the value
            // as measured. JSON has no NaN; none is ever produced.
            assert!(value.is_finite(), "{name} is {value}");
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Every metric by name, with its unit.
pub fn print_metrics(outcome: &Outcome, table: &[Metric]) {
    println!("  metrics:");
    for (name, value) in &outcome.metrics {
        let unit = spec::unit_of(table, name).unwrap_or("?");
        println!("    {name:<40} {value:>16.4} {unit}");
    }
    println!(
        "  failed_share: {} failed of {} attempted{}",
        outcome.failed,
        outcome.attempted,
        if outcome.correct {
            ""
        } else {
            "  ** INCORRECT **"
        }
    );
}

/// `--all`: each workload in its own process, in turn; their result
/// lines are gathered into `<out>/results.json` (`results-traced.json`
/// for a traced set).
pub fn run_all(args: &RunArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut results = Vec::new();
    for name in NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stdout(Stdio::piped());
        if args.quick {
            cmd.arg("--smoke");
        }
        let mut child = cmd.spawn().map_err(|e| format!("starting {name}: {e}"))?;
        let mut last = String::new();
        for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
            let line = line.map_err(|e| format!("reading {name}: {e}"))?;
            println!("{line}");
            last = line;
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for {name}: {e}"))?;
        if !status.success() {
            return Err(format!("workload {name} exited with {status}"));
        }
        Json::parse(&last).map_err(|e| format!("{name} printed no result line: {e}"))?;
        results.push(format!("{}: {last}", quote(name)));
    }
    let file = args.out.join(if args.traced {
        "results-traced.json"
    } else {
        "results.json"
    });
    let body = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{\n{}\n}}}}\n",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        results.join(",\n")
    );
    std::fs::write(&file, body).map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("results written to {}", file.display());
    Ok(())
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(v: &'a Json, key: &str, path: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{path}: no `{key}`"))
}

/// `(name, unit, better)` rows of one metric list of `BENCHMARK.json`.
fn declared(bench: &Json, list: &str) -> Vec<(String, String, String)> {
    let text = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    bench
        .get(list)
        .map(|l| l.as_array())
        .unwrap_or_default()
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect()
}

/// Differences between a metric table and its `BENCHMARK.json` list.
fn table_drift(bench: &Json, list: &str, table: &[Metric], problems: &mut Vec<String>) {
    let declared = declared(bench, list);
    let ours: Vec<(String, String, String)> = table
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    for row in &ours {
        if !declared.contains(row) {
            problems.push(format!("BENCHMARK.json {list} lacks {row:?}"));
        }
    }
    for row in &declared {
        if !ours.contains(row) {
            problems.push(format!(
                "BENCHMARK.json {list} has {row:?}, the program does not"
            ));
        }
    }
}

/// `validate RESULTS.json [BENCHMARK.json]`: fail if the names, units
/// or workload list of the emitted results differ from `BENCHMARK.json`
/// (or `BENCHMARK.json` from the program's own tables).
pub fn validate(args: &[String]) -> Result<(), String> {
    let results_path = args
        .first()
        .ok_or("usage: validate RESULTS.json [BENCHMARK.json]")?;
    let bench_path = args.get(1).map_or("BENCHMARK.json", String::as_str);
    let (results, bench) = (load(results_path)?, load(bench_path)?);
    let mut problems = Vec::new();

    table_drift(&bench, "end_to_end", spec::END_TO_END, &mut problems);
    table_drift(&bench, "per_layer", spec::PER_LAYER, &mut problems);
    let declared_workloads: Vec<&str> = bench
        .get("workloads")
        .map(|w| w.as_array())
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if declared_workloads != NAMES {
        problems.push(format!(
            "BENCHMARK.json workloads are {declared_workloads:?}, not {NAMES:?}"
        ));
    }

    let traced = field(&results, "trace", results_path)?.as_f64() == Some(1.0);
    let list = if traced { "per_layer" } else { "end_to_end" };
    let want: Vec<(String, String)> = declared(&bench, list)
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    let ran = field(&results, "workloads", results_path)?.members();
    let ran_names: Vec<&str> = ran.iter().map(|(n, _)| n.as_str()).collect();
    if ran_names != NAMES {
        problems.push(format!(
            "{results_path} holds workloads {ran_names:?}, not {NAMES:?}"
        ));
    }
    for (name, result) in ran {
        let got: Vec<(String, String)> = field(result, "metrics", name)?
            .members()
            .iter()
            .map(|(n, m)| {
                (
                    n.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                )
            })
            .collect();
        if got != want {
            let odd: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
            let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
            problems.push(format!(
                "{name}: metrics differ from BENCHMARK.json {list}: unexpected {odd:?}, \
                 missing {missing:?}{}",
                if odd.is_empty() && missing.is_empty() {
                    " (order differs)"
                } else {
                    ""
                }
            ));
        }
    }
    if problems.is_empty() {
        println!(
            "{results_path} agrees with {bench_path}: {} workloads, {} {list} metrics each",
            ran.len(),
            want.len()
        );
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// `compare A.json B.json [BENCHMARK.json]`: print each end-to-end
/// metric's relative difference against its bound; fail beyond it.
pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path, rest @ ..] = args else {
        return Err("usage: compare A.json B.json [BENCHMARK.json]".into());
    };
    let bench_path = rest.first().map_or("BENCHMARK.json", String::as_str);
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(bench_path)?);
    let mut beyond = 0usize;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (workload, result_a) in field(&a, "workloads", a_path)?.members() {
        let result_b = field(field(&b, "workloads", b_path)?, workload, b_path)?;
        for both in [result_a, result_b] {
            if both.get("correct") != Some(&Json::Bool(true)) {
                println!("{workload:<12} ** a run was not correct **");
                beyond += 1;
            }
        }
        for spec in field(&bench, "end_to_end", bench_path)?.as_array() {
            let text = |k: &str| spec.get(k).and_then(Json::as_str).unwrap_or("");
            let (name, better) = (text("name"), text("better"));
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let value = |r: &Json, path: &str| {
                r.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: {workload} has no {name}"))
            };
            let (va, vb) = (value(result_a, a_path)?, value(result_b, b_path)?);
            let worse = worsening(va, vb, better);
            let flag = if worse > bound { "  BEYOND" } else { "" };
            beyond += usize::from(worse > bound);
            println!(
                "{workload:<12} {name:<14} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%{flag}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if beyond == 0 {
        Ok(())
    } else {
        Err(format!("{beyond} comparisons beyond their bound"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, "higher") - 0.20).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", 0.8127), ("ops_per_s", 1234.5)],
        };
        let parsed = Json::parse(&result_line(&outcome, spec::END_TO_END)).unwrap();
        let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        // The repository's BENCHMARK.json, two levels up from here.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = load(path).unwrap();
        let mut problems = Vec::new();
        table_drift(&bench, "end_to_end", spec::END_TO_END, &mut problems);
        table_drift(&bench, "per_layer", spec::PER_LAYER, &mut problems);
        assert!(problems.is_empty(), "{problems:#?}");
    }
}
