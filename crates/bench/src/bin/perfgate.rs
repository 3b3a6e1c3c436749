//! CI gatekeeper for the JSON bench reports (`results/bench_<name>.json`).
//!
//! ```text
//! perfgate compare [--replay <report.json>] <a.json> <b.json> [<c.json> ...]
//! perfgate baseline -o BENCH_baseline.json <report.json> [...]
//! perfgate gate --baseline BENCH_baseline.json [--max-regress 0.25] \
//!     [--dir <results-dir>] [<report.json> ...]
//! perfgate ablate --plan <name> [--registry <csv>] [--report <json>] [--commit <id>]
//! ```
//!
//! * `compare` — asserts the reports are **byte-identical** once the two
//!   runtime `meta` lines (`threads`, `wall_s`) are stripped. This is the
//!   determinism check: the same commit must produce the same sweep data at
//!   `APS_THREADS=1` and `APS_THREADS=4`. With `--replay <out.json>` it
//!   additionally writes a structured divergence report (modeled on
//!   `aps-replay`'s `DivergenceReport`): per comparison pair, whether it
//!   was clean and, if not, the first diverging stripped line, its JSON
//!   key, both values, and a field-class guess — so CI uploads a machine-
//!   readable artifact instead of making humans diff raw bytes.
//! * `baseline` — distills reports into a committed baseline file carrying
//!   each report's name, thread count and wall-clock.
//! * `gate` — compares each report's wall-clock against its baseline
//!   entry; exits non-zero when a report regressed by more than
//!   `--max-regress` (default 0.25 = 25%). `--dir <results-dir>` gates
//!   every `bench_*.json` found there (sorted by file name), so CI does
//!   not hand-maintain the report list.
//! * `ablate` — runs a committed [`aps_ablate::plans`] ablation plan on an
//!   `APS_THREADS` pool, prints per-KPI tolerance-gate verdicts, appends
//!   the result rows to the append-only CSV registry (default
//!   `results/ablation_registry.csv`) keyed by `--commit` (default
//!   `$GITHUB_SHA`, else `local`) + plan hash, and optionally writes a
//!   JSON KPI report for artifact upload.
//!
//! Exit codes: 0 pass, 1 check failed, 2 usage/IO error.

use aps_ablate::{append_rows, plans};
use aps_bench::output::{extract_number, extract_string, strip_runtime_meta, Json};
use aps_par::Pool;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn report_name(body: &str, path: &str) -> String {
    extract_string(body, "name").unwrap_or_else(|| {
        eprintln!("perfgate: {path} has no \"name\" meta key");
        std::process::exit(2);
    })
}

fn report_wall_s(body: &str, path: &str) -> f64 {
    extract_number(body, "wall_s").unwrap_or_else(|| {
        eprintln!("perfgate: {path} has no \"wall_s\" meta key");
        std::process::exit(2);
    })
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  perfgate compare [--replay <out.json>] <a.json> <b.json> [...]\n  perfgate \
         baseline -o <out.json> <report.json> [...]\n  perfgate gate --baseline <baseline.json> \
         [--max-regress <frac>] [--dir <results-dir>] [<report.json> ...]\n  perfgate ablate \
         --plan <name> [--registry <csv>] [--report <json>] [--commit <id>]\n    plans: {}",
        plans::all()
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

/// The JSON key on a `"key": value` report line, if any.
fn line_key(line: &str) -> Option<&str> {
    let t = line.trim_start();
    let rest = t.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Guesses which replay field class a diverging bench-report key belongs
/// to, mirroring `aps-replay`'s decision / rates / timing / accounting
/// taxonomy for hand-rolled JSON lines.
fn classify_key(key: &str) -> &'static str {
    let k = key.to_ascii_lowercase();
    let has = |needles: &[&str]| needles.iter().any(|n| k.contains(n));
    if has(&[
        "policy",
        "controller",
        "schedule",
        "choice",
        "decision",
        "matched",
    ]) {
        "decision"
    } else if has(&["theta", "throughput", "rate", "gbps", "hops"]) {
        "rates"
    } else if has(&["reconfig", "ports", "events", "steps", "count", "seed", "n"]) {
        "accounting"
    } else {
        // Bench reports are mostly timings (`t_s`, `speedup`, `wall`, …).
        "timing"
    }
}

/// One comparison pair's entry for the structured divergence report.
fn pair_entry(reference: &str, candidate: &str, a: &str, b: &str) -> (bool, Json) {
    let mut fields: Vec<(&'static str, Json)> = vec![
        ("reference", Json::Str(a.to_string())),
        ("candidate", Json::Str(b.to_string())),
    ];
    let first = reference
        .lines()
        .zip(candidate.lines())
        .position(|(x, y)| x != y);
    let (ref_lines, cand_lines) = (reference.lines().count(), candidate.lines().count());
    let clean = first.is_none() && ref_lines == cand_lines;
    fields.push(("clean", Json::Bool(clean)));
    if let Some(i) = first {
        let ref_line = reference.lines().nth(i).unwrap_or_default();
        let cand_line = candidate.lines().nth(i).unwrap_or_default();
        let key = line_key(ref_line)
            .or_else(|| line_key(cand_line))
            .unwrap_or("");
        fields.push((
            "first_divergence",
            Json::obj([
                ("stripped_line", Json::UInt(i as u64 + 1)),
                ("key", Json::Str(key.to_string())),
                ("field_class", Json::Str(classify_key(key).to_string())),
                ("reference_value", Json::Str(ref_line.trim().to_string())),
                ("candidate_value", Json::Str(cand_line.trim().to_string())),
            ]),
        ));
    } else if !clean {
        fields.push((
            "first_divergence",
            Json::obj([
                (
                    "stripped_line",
                    Json::UInt(ref_lines.min(cand_lines) as u64 + 1),
                ),
                ("key", Json::Str("<line count>".to_string())),
                ("field_class", Json::Str("accounting".to_string())),
                ("reference_value", Json::Str(format!("{ref_lines} lines"))),
                ("candidate_value", Json::Str(format!("{cand_lines} lines"))),
            ]),
        ));
    }
    (clean, Json::obj(fields))
}

fn compare(args: &[String]) -> i32 {
    let mut replay_out = None;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--replay" => replay_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            p => paths.push(p.to_string()),
        }
    }
    if paths.len() < 2 {
        usage();
    }
    let reference = strip_runtime_meta(&read(&paths[0]));
    let mut failed = false;
    let mut pairs = Vec::new();
    for p in &paths[1..] {
        let candidate = strip_runtime_meta(&read(p));
        let (clean, entry) = pair_entry(&reference, &candidate, &paths[0], p);
        pairs.push(entry);
        if clean {
            println!("perfgate: {} == {} (modulo runtime meta)", paths[0], p);
        } else {
            failed = true;
            let diff_line = reference
                .lines()
                .zip(candidate.lines())
                .position(|(a, b)| a != b)
                .map_or("line count differs".to_string(), |i| {
                    format!("first difference at stripped line {}", i + 1)
                });
            eprintln!(
                "perfgate: DETERMINISM FAILURE {} != {} ({diff_line})",
                paths[0], p
            );
        }
    }
    if let Some(out) = replay_out {
        let doc = Json::obj([
            ("schema_version", Json::UInt(1)),
            ("kind", Json::Str("perfgate-divergence-report".to_string())),
            ("clean", Json::Bool(!failed)),
            ("pairs", Json::Arr(pairs)),
        ]);
        if let Err(e) = std::fs::write(&out, doc.render()) {
            eprintln!("perfgate: cannot write {out}: {e}");
            return 2;
        }
        println!("perfgate: wrote divergence report to {out}");
    }
    i32::from(failed)
}

fn baseline(args: &[String]) -> i32 {
    let mut out_path = None;
    let mut reports = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => out_path = it.next().cloned(),
            p => reports.push(p.to_string()),
        }
    }
    let (Some(out_path), false) = (out_path, reports.is_empty()) else {
        usage();
    };
    let entries: Vec<Json> = reports
        .iter()
        .map(|p| {
            let body = read(p);
            Json::obj([
                ("name", Json::Str(report_name(&body, p))),
                (
                    "threads",
                    Json::UInt(extract_number(&body, "threads").unwrap_or(1.0) as u64),
                ),
                ("wall_s", Json::Num(report_wall_s(&body, p))),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("schema_version", Json::UInt(1)),
        ("entries", Json::Arr(entries)),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.render()) {
        eprintln!("perfgate: cannot write {out_path}: {e}");
        return 2;
    }
    println!("perfgate: wrote {out_path} ({} entries)", reports.len());
    0
}

/// Parses the `entries` of a baseline file written by [`baseline`]:
/// `(name, threads, wall_s)` triples, read line-by-line from this tool's
/// own format (keys appear in `name`, `threads`, `wall_s` order; an entry
/// without `threads` is a 1-thread entry). The file is hand-edited, so a
/// value that does not parse is an error naming `path` and the key.
fn baseline_entries(body: &str, path: &str) -> Result<Vec<(String, u64, f64)>, String> {
    let bad = |key: &str, v: &str| format!("{path}: cannot parse \"{key}\" value {v}");
    let mut entries = Vec::new();
    let mut name: Option<String> = None;
    let mut threads = 1u64;
    for line in body.lines() {
        let Some((key, v)) = line
            .trim()
            .strip_prefix('"')
            .and_then(|t| t.split_once("\":"))
        else {
            continue;
        };
        let v = v.trim().trim_end_matches(',');
        match key {
            "name" => {
                let n = v.strip_prefix('"').and_then(|s| s.strip_suffix('"'));
                name = Some(n.ok_or_else(|| bad(key, v))?.to_string());
                threads = 1;
            }
            "threads" => threads = v.parse().map_err(|_| bad(key, v))?,
            "wall_s" => {
                let wall = v.parse::<f64>().map_err(|_| bad(key, v))?;
                let n = name
                    .take()
                    .ok_or_else(|| format!("{path}: \"wall_s\" {v} has no \"name\""))?;
                entries.push((n, threads, wall));
            }
            _ => {}
        }
    }
    Ok(entries)
}

/// Every `bench_*.json` under `dir`, sorted by file name so the gate
/// output (and any failure) is deterministic across filesystems.
fn bench_reports_in(dir: &str) -> Vec<String> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read directory {dir}: {e}");
        std::process::exit(2);
    });
    let mut found: Vec<String> = entries
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("bench_") && name.ends_with(".json")
        })
        .map(|e| e.path().to_string_lossy().into_owned())
        .collect();
    found.sort();
    if found.is_empty() {
        eprintln!("perfgate: no bench_*.json reports in {dir}");
        std::process::exit(2);
    }
    found
}

fn gate(args: &[String]) -> i32 {
    let mut baseline_path = None;
    let mut max_regress = 0.25f64;
    let mut reports = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline_path = it.next().cloned(),
            "--max-regress" => {
                max_regress = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--dir" => {
                let dir = it.next().cloned().unwrap_or_else(|| usage());
                reports.extend(bench_reports_in(&dir));
            }
            p => reports.push(p.to_string()),
        }
    }
    let (Some(baseline_path), false) = (baseline_path, reports.is_empty()) else {
        usage();
    };
    let entries = baseline_entries(&read(&baseline_path), &baseline_path).unwrap_or_else(|e| {
        eprintln!("perfgate: {e}");
        std::process::exit(2);
    });
    let mut failed = false;
    for p in &reports {
        let body = read(p);
        let name = report_name(&body, p);
        let wall = report_wall_s(&body, p);
        let threads = extract_number(&body, "threads").unwrap_or(1.0) as u64;
        // Prefer the entry recorded at the same thread count; fall back to
        // any entry of the same name.
        let Some((_, _, base_wall)) = entries
            .iter()
            .find(|(n, t, _)| *n == name && *t == threads)
            .or_else(|| entries.iter().find(|(n, _, _)| *n == name))
        else {
            eprintln!("perfgate: no baseline entry for '{name}' in {baseline_path}");
            failed = true;
            continue;
        };
        let limit = base_wall * (1.0 + max_regress);
        let ratio = wall / base_wall;
        if wall > limit {
            failed = true;
            eprintln!(
                "perfgate: PERF REGRESSION '{name}': {wall:.3} s vs baseline {base_wall:.3} s \
                 ({ratio:.2}x > allowed {:.2}x)",
                1.0 + max_regress
            );
        } else {
            println!(
                "perfgate: '{name}' ok: {wall:.3} s vs baseline {base_wall:.3} s ({ratio:.2}x)"
            );
        }
    }
    i32::from(failed)
}

/// JSON-safe rendering of a KPI value: verdicts over empty matched sets
/// carry NaN, which the bench JSON writer (rightly) refuses to render.
fn kpi_value_json(value: f64) -> Json {
    if value.is_finite() {
        Json::Num(value)
    } else {
        Json::Str(format!("{value}"))
    }
}

fn ablate(args: &[String]) -> i32 {
    let mut plan_name = None;
    let mut registry_path = "results/ablation_registry.csv".to_string();
    let mut report_path = None;
    let mut commit = std::env::var("GITHUB_SHA").unwrap_or_else(|_| "local".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--plan" => plan_name = it.next().cloned(),
            "--registry" => registry_path = it.next().cloned().unwrap_or_else(|| usage()),
            "--report" => report_path = it.next().cloned(),
            "--commit" => commit = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let Some(plan_name) = plan_name else {
        usage();
    };
    let Some(plan) = plans::by_name(&plan_name) else {
        eprintln!("perfgate: unknown ablation plan '{plan_name}'");
        usage();
    };
    let pool = Pool::from_env();
    let report = match adaptive_photonics::run_ablation(&pool, &plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfgate: ablation plan '{plan_name}' failed to evaluate: {e}");
            return 2;
        }
    };
    print!("{}", report.render_text());
    let rows = report.registry_rows(&commit);
    if let Some(parent) = std::path::Path::new(&registry_path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("perfgate: cannot create {}: {e}", parent.display());
                return 2;
            }
        }
    }
    if let Err(e) = append_rows(std::path::Path::new(&registry_path), &rows) {
        eprintln!("perfgate: registry append to {registry_path} failed: {e}");
        return 2;
    }
    println!(
        "perfgate: appended {} rows to {registry_path} (commit {commit}, plan hash {})",
        rows.len(),
        report.plan_hash
    );
    if let Some(out) = report_path {
        let verdicts: Vec<Json> = report
            .verdicts
            .iter()
            .map(|v| {
                Json::obj([
                    ("spec", Json::Str(v.spec.clone())),
                    ("value", kpi_value_json(v.value)),
                    ("pass", Json::Bool(v.pass)),
                    ("detail", Json::Str(v.detail.clone())),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("schema_version", Json::UInt(1)),
            ("kind", Json::Str("ablation-kpi-report".to_string())),
            ("plan", Json::Str(report.plan.clone())),
            ("plan_hash", Json::Str(report.plan_hash.clone())),
            ("commit", Json::Str(commit.clone())),
            ("cells", Json::UInt(report.results.len() as u64)),
            ("pass", Json::Bool(report.pass())),
            ("verdicts", Json::Arr(verdicts)),
        ]);
        if let Err(e) = std::fs::write(&out, doc.render()) {
            eprintln!("perfgate: cannot write {out}: {e}");
            return 2;
        }
        println!("perfgate: wrote KPI report to {out}");
    }
    if report.pass() {
        0
    } else {
        eprintln!("perfgate: ABLATION GATE FAILURE in plan '{plan_name}' (see verdicts above)");
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let code = match cmd.as_str() {
        "compare" => compare(rest),
        "baseline" => baseline(rest),
        "gate" => gate(rest),
        "ablate" => ablate(rest),
        _ => usage(),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::baseline_entries;

    #[test]
    fn an_entry_without_threads_is_a_one_thread_entry() {
        let body = r#"{
  "entries": [
    {
      "name": "fig1",
      "threads": 4,
      "wall_s": 1.0
    },
    {
      "name": "fig2",
      "wall_s": 2.5
    }
  ]
}"#;
        let got = baseline_entries(body, "b.json").unwrap();
        assert_eq!(
            got,
            [("fig1".to_string(), 4, 1.0), ("fig2".to_string(), 1, 2.5)]
        );
    }

    #[test]
    fn an_unparsable_value_names_the_file_and_key() {
        let body = "\"name\": \"fig1\",\n\"threads\": 1,\n\"wall_s\": fast\n";
        let err = baseline_entries(body, "b.json").unwrap_err();
        assert!(
            err.contains("b.json") && err.contains("\"wall_s\""),
            "{err}"
        );
        let body = "\"name\": \"fig1\",\n\"threads\": four,\n\"wall_s\": 1.0\n";
        let err = baseline_entries(body, "b.json").unwrap_err();
        assert!(
            err.contains("b.json") && err.contains("\"threads\""),
            "{err}"
        );
    }

    #[test]
    fn the_committed_baseline_has_seven_benches_at_one_and_four_threads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let entries = baseline_entries(&std::fs::read_to_string(path).unwrap(), path).unwrap();
        assert_eq!(entries.len(), 14);
        for threads in [1, 4] {
            let mut names: Vec<&str> = entries
                .iter()
                .filter(|(_, t, _)| *t == threads)
                .map(|(n, _, _)| n.as_str())
                .collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 7, "threads = {threads}: {names:?}");
        }
    }
}
