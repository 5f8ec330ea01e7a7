//! `anneal-e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--smoke] [--bless]`
//!
//! Runs one workload against the checkout's `repro` binary, prints every
//! metric by name with its unit, then one JSON result line. Exit status:
//! 0 when every output check passed, 1 when one failed (each failed check
//! is named on stderr), 2 on a usage or build error.

use std::process::ExitCode;

use anneal_e2ebench::{program, run, Opts, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: anneal-e2ebench --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--bless]";

fn parse(args: &[String]) -> Result<(String, Opts, bool), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: anneal_experiments::DEFAULT_SEED,
        seconds: 25.0,
        smoke: false,
        bless: false,
    };
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--bless" => opts.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (out, chrome) = match run(&workload, &opts, trace) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in names {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("{workload} {name} = {value} {unit}");
    }
    if let Some(json) = chrome {
        let path = program::checkout_root()
            .join(".e2ebench_work")
            .join(format!("trace-{workload}.json"));
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    for failed in &out.failed_checks {
        eprintln!("check failed: {failed}");
    }
    println!("{}", out.json(names));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
