//! EmbLookup's benchmark: three workloads against an in-process HTTP
//! server, end-to-end metrics from an untraced run, per-layer metrics
//! from a traced one. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! The exit code is non-zero when an answer fails its checks or the run
//! cannot complete.

mod bench;
mod http;
mod inputs;
mod layers;
mod stats;
mod trace;

use bench::{Ctx, Outcome, Scale, Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}; want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", names.join(", "))
    })
}

/// Generates the inputs of workload `w` and runs it.
fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Outcome, String> {
    let model_bytes = inputs::model_bytes(scale.smoke)?;
    let mut config = inputs::model_config(scale.smoke);
    config.compression = w.compression;
    let synth = inputs::kg(seed, scale.entities);
    let mentions = match w.traffic {
        bench::Traffic::Point => {
            inputs::point_mentions(&synth.kg, seed, bench::point_budget(seconds))
        }
        bench::Traffic::Bulk => inputs::table_cells(&synth, seed, scale.tables),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# run workload={} seed={seed} trace={} seconds={seconds} entities={} mentions={} model_bytes={} model_hash={:016x} kg_hash={:016x} git_rev={} kernel={} nproc={nproc} cpu=\"{}\"",
        w.name,
        u8::from(traced),
        synth.kg.num_entities(),
        mentions.len(),
        model_bytes.len(),
        inputs::fnv64(&model_bytes),
        inputs::fnv64(&emblookup_kg::kg_to_bytes(&synth.kg)),
        inputs::git_rev(),
        emblookup_ann::kernels::active(),
        inputs::cpu_model(),
    );
    let cx = Ctx {
        w,
        kg: &synth.kg,
        model_bytes: &model_bytes,
        config: &config,
        mentions: &mentions,
        nproc,
        seconds,
        scale,
        seed,
    };
    bench::run(&cx, traced)
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// The `(name, unit)` lists of `BENCHMARK.json`: end-to-end, per-layer.
type MetricList = Vec<(String, String)>;

fn declared_metrics() -> Result<(MetricList, MetricList), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json =
        emblookup_serve::json::parse(&text).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<MetricList, String> {
        json.get(key)
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or_else(|| format!("{key} entry without name or unit"))
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Smoke mode: every workload, untraced and traced, on a tiny KG with a
/// tiny encoder for one second each; checks that each run is correct and
/// prints exactly the metrics `BENCHMARK.json` declares, with their units.
fn smoke() -> Result<(), String> {
    let (end_to_end, per_layer) = declared_metrics()?;
    for w in &WORKLOADS {
        for traced in [false, true] {
            let outcome = run(w, 1, 1.0, traced, Scale::SMOKE)?;
            println!("{}", result_json(&outcome));
            let want = if traced { &per_layer } else { &end_to_end };
            let got: MetricList = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            if &got != want {
                return Err(format!(
                    "{} trace={}: printed {got:?}, BENCHMARK.json declares {want:?}",
                    w.name,
                    u8::from(traced)
                ));
            }
            if !outcome.correct {
                return Err(format!(
                    "{} trace={}: answers failed their checks",
                    w.name,
                    u8::from(traced)
                ));
            }
            if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!(
                    "{} trace={}: {} is {}",
                    w.name,
                    u8::from(traced),
                    m.name,
                    m.value
                ));
            }
        }
    }
    println!("# smoke: all workloads ran and printed every declared metric with its unit");
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let result = match args.peek().map(String::as_str) {
        Some("--train-model") => {
            let path = args.nth(1).map(PathBuf::from);
            let smoke = args.next().as_deref() == Some("--smoke");
            match path {
                Some(p) => inputs::train_model(&p, smoke).map_err(|e| format!("training: {e}")),
                None => Err("--train-model needs a path".into()),
            }
        }
        Some("--smoke") => smoke(),
        _ => parse_args(args).and_then(|a| {
            let w = workload(&a.workload)?;
            let outcome = run(w, a.seed, a.seconds, a.trace, Scale::FULL)?;
            for m in &outcome.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!("{} came out as {}", m.name, m.value));
            }
            println!("{}", result_json(&outcome));
            if outcome.correct {
                Ok(())
            } else {
                Err("answers failed their checks".into())
            }
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
