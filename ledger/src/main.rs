//! `ledger` — the repo's benchmark: CMI measured end to end and layer by
//! layer on four named workloads. `README.md` beside `Cargo.toml` has the
//! metric glossary and how to run, trace and compare.

mod affinity;
mod alloc;
mod compare;
mod drive;
mod gen;
mod json;
mod layers;
mod oracle;
mod pace;
mod run;
mod span;
mod stack;
mod stats;
mod workloads;

use std::process::ExitCode;

use gen::Workload;
use json::Json;
use run::{Plan, RunResult};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Measured seconds of a run when `--seconds` is not given (what
/// `BENCHMARK.json` declares as `run_seconds`).
const DEFAULT_SECONDS: f64 = 21.0;
/// Measured seconds per workload under `--quick`.
const QUICK_SECONDS: f64 = 2.0;
/// An end-to-end run spreads its measured seconds over this many *takes* —
/// fresh processes that each set up, run `paced` and `sat`, and check
/// themselves against the oracle — and reports each metric's take at the
/// better quartile (`stats::better_quartile`: the second best of seven).
/// On a shared box a slow spell lasts seconds to tens of seconds and a
/// process keeps its luck (placement, memory layout) for life: either spoils
/// takes, never improves one, and the run holds until it spoils six.
const TAKES: usize = 7;

const USAGE: &str = "usage:
  ledger --workload <detect_local|session_push|fed_routed|enact_lifecycle|all>
         [--seed <n>] [--seconds <s>] [--trace <0|1>] [--runs <k>]
  ledger --quick
  ledger compare <a.json> <b.json>
  ledger take <workload> <seed> <seconds>    (what a run starts its takes with)";

/// What a run reports: the per-layer metrics when traced, else the
/// end-to-end ones.
fn reported(r: &RunResult) -> &[run::Metric] {
    if r.plan.trace {
        &r.per_layer
    } else {
        &r.end_to_end
    }
}

/// The result object the driver reads off the last line of stdout.
fn result_json(r: &RunResult) -> Json {
    let metrics = reported(r);
    Json::obj([
        ("correct".to_owned(), Json::Bool(r.correct)),
        ("attempted".to_owned(), Json::Num(r.attempted as f64)),
        ("failed".to_owned(), Json::Num(r.failed as f64)),
        (
            "metrics".to_owned(),
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value".to_owned(), Json::Num(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                )
            })),
        ),
    ])
}

/// Every metric as a `name value unit` line, then the verdict of the check.
fn print_result(r: &RunResult) {
    let metrics = reported(r);
    for m in metrics {
        match &m.detail {
            Some(d) => println!(
                "{} {} {}  (median of {} windows; quartiles {:.4} {:.4}, min {:.4} max {:.4}, {} samples)",
                m.name,
                m.value,
                m.unit,
                d.values.len(),
                d.low,
                d.high,
                d.min,
                d.max,
                d.samples
            ),
            None => println!("{} {} {}", m.name, m.value, m.unit),
        }
    }
    let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ratio  (missing {} extra {} misordered {} ingest_errors {} later_than_250ms {}; generator late p99 {:.1} us)",
        r.diff.missing, r.diff.extra, r.diff.misordered, r.ingest_errors, r.too_late, r.late_p99_us
    );
    if let Some(e) = &r.first_error {
        println!("first error: {e}");
    }
}

/// The lateness gate: beyond the limit the generator, not the program, was
/// the bottleneck, and the figures are the box's.
fn on_time(late_p99_us: f64) -> bool {
    let ok = late_p99_us <= run::LATE_LIMIT_US;
    if !ok {
        println!(
            "refused: the generator ran {late_p99_us:.0} us late at p99 (limit {} us) — the box, not the program, was the bottleneck",
            run::LATE_LIMIT_US
        );
    }
    ok
}

/// One workload in this process: prints every metric, then the result
/// object as the last line.
fn run_here(plan: Plan) -> Result<RunResult, String> {
    let r = run::run(plan).map_err(|e| format!("{}: {e}", plan.workload.name()))?;
    print_result(&r);
    println!("{}", result_json(&r).render());
    Ok(r)
}

/// Runs this binary with `args` as a child process, passes its output on
/// (each line behind `prefix`), and returns whether it exited with 0 and the
/// result object on its last line.
fn run_child(args: &[&str], prefix: &str) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting `ledger {}`: {e}", args.join(" ")))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        println!("{prefix}{line}");
    }
    let result = stdout
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .ok_or_else(|| format!("`ledger {}`: no result line", args.join(" ")))?;
    Ok((out.status.success(), result))
}

/// An end-to-end run: [`TAKES`] child processes one after the other, each
/// metric's better-quartile take reported, `attempted` and `failed` summed.
/// `Ok(false)` (a non-zero exit) when a take fails its oracle check or the
/// generator could not keep its schedule even in the better-quartile take.
fn run_takes(workload: Workload, seed: u64, seconds: f64) -> Result<bool, String> {
    let (seed_arg, per_take) = (seed.to_string(), (seconds / TAKES as f64).to_string());
    let mut ok = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for take in 0..TAKES {
        let (exited_ok, result) = run_child(
            &["take", workload.name(), &seed_arg, &per_take],
            &format!("take {take} | "),
        )?;
        ok &= exited_ok && result.get("correct") == Some(&Json::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("take {take}: no metrics"))?;
        for (name, m) in metrics {
            let (Some(v), Some(unit)) = (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str),
            ) else {
                return Err(format!("take {take}: malformed metric {name}"));
            };
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, vs)) => vs.push(v),
                None => values.push((name.clone(), unit.to_owned(), vec![v])),
            }
        }
    }
    let mut metrics = Vec::new();
    for (name, unit, vs) in &values {
        let value = stats::better_quartile(vs, run::HIGHER_IS_BETTER.contains(&name.as_str()));
        println!(
            "{name} {value} {unit}  (better quartile of {} takes: {vs:?}; median {})",
            vs.len(),
            stats::median(vs)
        );
        if name == run::LATE_METRIC {
            ok &= on_time(value);
            continue;
        }
        metrics.push((
            name.clone(),
            Json::obj([
                ("value".to_owned(), Json::Num(value)),
                ("unit".to_owned(), Json::Str(unit.clone())),
            ]),
        ));
    }
    println!("failed_frac {} ratio", failed / attempted.max(1.0));
    let result = Json::obj([
        ("correct".to_owned(), Json::Bool(ok)),
        ("attempted".to_owned(), Json::Num(attempted)),
        ("failed".to_owned(), Json::Num(failed)),
        ("metrics".to_owned(), Json::obj(metrics)),
    ])
    .render();
    stack::write_out(
        &format!("{}-seed{seed}.json", workload.name()),
        &(result.clone() + "\n"),
    )
    .map_err(|e| format!("writing result: {e}"))?;
    println!("{result}");
    Ok(ok)
}

/// `--workload all`: each workload in a fresh child process (so that its
/// memory figure is its own), `runs` seeds each, gathered into one set file.
fn run_all(seed: u64, seconds: f64, trace: bool, runs: u64) -> Result<bool, String> {
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut results = Vec::new();
        for s in seed..seed + runs {
            println!("== {} seed {s}", w.name());
            let (exited_ok, result) = run_child(
                &[
                    "--workload",
                    w.name(),
                    "--seed",
                    &s.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ],
                "",
            )?;
            ok &= exited_ok;
            results.push(result);
        }
        workloads.push((
            w.name().to_owned(),
            Json::obj([("runs".to_owned(), Json::Arr(results))]),
        ));
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let set = Json::obj([
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("runs".to_owned(), Json::Num(runs as f64)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("trace".to_owned(), Json::Bool(trace)),
        ("cpus".to_owned(), Json::Num(cpus as f64)),
        ("workloads".to_owned(), Json::obj(workloads)),
    ]);
    let name = format!("set-seed{seed}{}.json", if trace { "-trace" } else { "" });
    let path = stack::write_out(&name, &(set.render() + "\n")).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// `--quick`: all four workloads, one short take each in this process,
/// nothing written — a smoke test of the harness and the oracle.
fn run_quick() -> Result<bool, String> {
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        ok &= run_here(Plan {
            workload: w,
            seed: 1,
            seconds: QUICK_SECONDS,
            trace: false,
        })?
        .correct;
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.to_owned()),
        };
    }
    if args == ["--quick"] {
        return run_quick();
    }
    if let [cmd, workload, seed, seconds] = &args[..] {
        if cmd == "take" {
            let plan = Plan {
                workload: Workload::from_name(workload).ok_or_else(|| USAGE.to_owned())?,
                seed: seed.parse().map_err(|_| USAGE.to_owned())?,
                seconds: seconds.parse().map_err(|_| USAGE.to_owned())?,
                trace: false,
            };
            return Ok(run_here(plan)?.correct);
        }
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut runs) =
        (None, 1u64, DEFAULT_SECONDS, false, 1u64);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let num = |what: &str| format!("{flag}: `{val}` is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| num("a whole number"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| num("a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(num("between 0 and 600"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(num("0 or 1")),
                }
            }
            "--runs" => {
                runs = val.parse().map_err(|_| num("a whole number"))?;
                if !(1..=100).contains(&runs) {
                    return Err(num("between 1 and 100"));
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| USAGE.to_owned())?;
    if workload == "all" {
        return run_all(seed, seconds, trace, runs);
    }
    let workload = Workload::from_name(&workload)
        .ok_or_else(|| format!("unknown workload {workload}\n{USAGE}"))?;
    if !trace {
        return run_takes(workload, seed, seconds);
    }
    // the traced run is one take of the whole length: its spans and slices
    // say where the time goes, its end-to-end figures are not reported
    let r = run_here(Plan {
        workload,
        seed,
        seconds,
        trace,
    })?;
    stack::write_out(
        &format!("{}-seed{seed}-trace.json", workload.name()),
        &(result_json(&r).render() + "\n"),
    )
    .map_err(|e| format!("writing result: {e}"))?;
    Ok(r.correct && on_time(r.late_p99_us))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
