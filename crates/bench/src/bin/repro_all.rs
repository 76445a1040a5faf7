//! Runs every experiment in paper order, regenerating all figures and
//! tables into `results/`. Expect this to take a while at default trace
//! length; `IBP_EVENTS=30000` gives a quick full pass.
//!
//! Prints a cache/throughput summary on stderr when done and writes
//! per-experiment runtime metrics to `results/manifest.csv`. Set
//! `IBP_TRACE=1` (or `IBP_TRACE=<path>`) to record a JSONL run journal,
//! per-sweep and per-experiment progress lines included — render it with
//! `obs_report`, or convert it to Chrome trace-event JSON for Perfetto.

use std::time::Instant;

use ibp_obs as obs;

fn main() {
    let t0 = Instant::now();
    let suite = ibp_bench::full_suite();
    let mut metrics = Vec::new();
    for e in ibp_sim::experiments::all() {
        eprintln!("== {} ({}) ==", e.title, e.id);
        let (tables, m) = ibp_bench::run_instrumented(&e, &suite);
        ibp_bench::emit(e.id, &tables);
        metrics.push(m);
    }
    match ibp_bench::write_manifest(&metrics) {
        Ok(path) => eprintln!("runtime manifest written to {}", path.display()),
        Err(e) => obs::warn!("could not write manifest.csv: {e}"),
    }
    ibp_sim::engine::persist_cache();
    ibp_bench::print_summary(&metrics, t0.elapsed());
    obs::flush();
    if let Some(path) = obs::journal::path() {
        eprintln!(
            "trace journal written to {} (render with: obs_report {})",
            path.display(),
            path.display()
        );
    }
}
