//! `report` — analysis over a run's telemetry WAL, chain traces, and
//! benchmark snapshots.
//!
//! ```text
//! report --wal WAL [--trace DIR] [--out PATH]
//! report --compare OLD.json NEW.json [--threshold PCT] [--strict]
//! report --trace DIR --chrome-trace OUT.json
//!
//! MODES:
//!   --wal WAL            render a Markdown report from a telemetry WAL
//!                        (written by `repro --telemetry`); add --trace DIR
//!                        to fold in the chain traces from `repro --trace`
//!                        (time per temperature, energy sparklines)
//!   --compare OLD NEW    diff two `bench --json` snapshots and flag
//!                        kernels that got slower
//!   --chrome-trace OUT   convert a `--trace DIR` directory to Chrome
//!                        Trace Event JSON (open in chrome://tracing or
//!                        Perfetto): one pid per table, one tid per
//!                        cell/replica, temperature stages as duration
//!                        events
//!
//! OPTIONS:
//!   --out PATH           write the Markdown to PATH instead of stdout
//!   --threshold PCT      slowdown (percent) that counts as a regression
//!                        in --compare mode (default 10)
//!   --strict             exit 3 when --compare finds a regression
//!
//! Exit status: 0 on success, 1 on usage or I/O errors (the usage text is
//! printed only for the former), 3 when --strict --compare found a
//! regression.
//! ```

use std::path::Path;
use std::process::ExitCode;

use anneal_experiments::{checkpoint, exit_codes, reporting, trace};

const USAGE: &str = "usage: report --wal WAL [--trace DIR] [--out PATH]\n\
       report --compare OLD.json NEW.json [--threshold PCT] [--strict]\n\
       report --trace DIR --chrome-trace OUT.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    run(&parsed).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    })
}

struct Args {
    wal: Option<String>,
    trace_dir: Option<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
    chrome_trace: Option<String>,
    threshold: f64,
    strict: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        wal: None,
        trace_dir: None,
        out: None,
        compare: None,
        chrome_trace: None,
        threshold: 10.0,
        strict: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--wal" => parsed.wal = Some(value_of("--wal")?.clone()),
            "--trace" => parsed.trace_dir = Some(value_of("--trace")?.clone()),
            "--out" => parsed.out = Some(value_of("--out")?.clone()),
            "--compare" => {
                let old = value_of("--compare")?.clone();
                let new = it
                    .next()
                    .ok_or("--compare needs two snapshot paths")?
                    .clone();
                parsed.compare = Some((old, new));
            }
            "--threshold" => {
                let v = value_of("--threshold")?;
                let pct: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --threshold value `{v}`"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err("--threshold must be a non-negative percentage".into());
                }
                parsed.threshold = pct;
            }
            "--strict" => parsed.strict = true,
            "--chrome-trace" => parsed.chrome_trace = Some(value_of("--chrome-trace")?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.chrome_trace.is_some() {
        if parsed.trace_dir.is_none() {
            return Err("--chrome-trace needs --trace DIR to read events from".into());
        }
        if parsed.wal.is_some() || parsed.compare.is_some() {
            return Err("--chrome-trace is its own mode: drop --wal/--compare".into());
        }
        return Ok(parsed);
    }
    match (&parsed.wal, &parsed.compare) {
        (None, None) => Err("give either --wal WAL or --compare OLD NEW".into()),
        (Some(_), Some(_)) => Err("--wal and --compare are mutually exclusive".into()),
        _ => Ok(parsed),
    }
}

fn emit(out: &Option<String>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("report written to {path}");
            Ok(())
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn run(parsed: &Args) -> Result<ExitCode, String> {
    if let Some(out_path) = &parsed.chrome_trace {
        let dir = parsed
            .trace_dir
            .as_deref()
            .expect("parse() guarantees --trace");
        let traces = trace::load_dir(Path::new(dir))?;
        let json = reporting::chrome_trace_json(&traces);
        std::fs::write(out_path, &json).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
        eprintln!(
            "chrome trace with {} cell trace(s) written to {out_path}",
            traces.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    if let Some((old_path, new_path)) = &parsed.compare {
        let old = std::fs::read_to_string(old_path)
            .map_err(|e| format!("cannot read `{old_path}`: {e}"))?;
        let new = std::fs::read_to_string(new_path)
            .map_err(|e| format!("cannot read `{new_path}`: {e}"))?;
        let cmp = reporting::compare_benchmarks(&old, &new, parsed.threshold)?;
        emit(&parsed.out, &reporting::render_compare(&cmp))?;
        let regressed = !cmp.regressions().is_empty();
        if regressed {
            eprintln!(
                "{} kernel(s) slower than the {:.0}% threshold",
                cmp.regressions().len(),
                parsed.threshold
            );
        }
        return Ok(if regressed && parsed.strict {
            ExitCode::from(exit_codes::BENCH_REGRESSION)
        } else {
            ExitCode::SUCCESS
        });
    }

    let wal_path = parsed.wal.as_deref().expect("parse() guarantees a mode");
    let cp = checkpoint::load(wal_path)?;
    if cp.torn {
        eprintln!("report: WAL {wal_path} ends in a torn record (interrupted run)");
    }
    let traces = match &parsed.trace_dir {
        Some(dir) => trace::load_dir(Path::new(dir))?,
        None => Vec::new(),
    };
    emit(&parsed.out, &reporting::render_report(&cp, &traces))?;
    Ok(ExitCode::SUCCESS)
}
