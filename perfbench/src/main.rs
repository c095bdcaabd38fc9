//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when an
//! output check failed or the run could not be set up.

use perfbench::{host_line, result_json, run, Config, Size, WORKLOADS};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::full(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`\n{}", usage());
        match flag.as_str() {
            "--workload" => config.workload = value.clone(),
            "--seed" => config.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(config.seconds > 0.0 && config.seconds <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!("unknown or missing workload `{}`\n{}", config.workload, usage()));
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", host_line(&config, &outcome));
    match result_json(&config, &outcome) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
