//! `rbpc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--scale full|tiny]`
//!
//! Runs one workload and prints a report; the last line of standard
//! output is the result object. Exits 2 on bad arguments. A run whose
//! checks fail still prints its result (with `"correct": false`) and
//! exits 0; the caller reads `correct`.

use rbpc_perfbench::{report, run, RunConfig, Scale, Workload};
use std::time::Duration;

const USAGE: &str = "usage: rbpc-perfbench --workload isp_storm|as_lazy|internet_protocol \
                     --seed N --seconds S --trace 0|1 [--scale full|tiny]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = rbpc_perfbench::DEFAULT_SEED;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--scale" => {
                scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("bad scale {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed,
        measure: Duration::from_secs_f64(seconds),
        trace,
        scale,
        threads: rbpc_core::default_threads(),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&cfg);
    let stamp = format!(
        "workload={} seed={} trace={} scale={:?} seconds={} nproc={} build_threads={} \
         features=obs commit={}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        cfg.scale,
        cfg.measure.as_secs_f64(),
        rbpc_core::default_threads(),
        cfg.threads,
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
    );
    report::print(&outcome, &stamp);
}
