//! One module per reproduced table/figure. Each exposes `run(fast)`;
//! the `fast` flag shrinks epoch counts and cycle budgets so integration
//! tests finish quickly. [`registry`] names every experiment:
//! `dcat-bench <name>` runs one, `all_experiments` the suite.

pub mod ablate_replacement;
mod ablations;
mod common;
pub mod exp_coloring;
mod fault_sweep;
mod fig01_interference;
pub mod fig02_conflict_latency;
pub mod fig03_set_histogram;
pub mod fig05_phase_metric;
pub mod fig07_lifecycle;
mod fig08_miss_threshold;
mod fig09_ipc_threshold;
pub mod fig10_dynamic_alloc;
mod fig11_latency_norm;
pub mod fig12_perf_table_reuse;
pub mod fig13_streaming;
mod fig14_two_receivers;
pub mod fig15_mixed;
pub mod fig17_spec2006;
mod fleet_churn;
mod fleet_scale;
pub mod promise;
pub mod tab_services;
mod trace;

use tab_services::run_service;
use tab_services::Service::{Elasticsearch, Redis};

use crate::Cli;

/// One entry of the registry: a stable name, whether `all_experiments`
/// runs it, and the run itself, which prints its report through
/// [`crate::report`].
pub struct Experiment {
    /// What `dcat-bench` is given to run it.
    pub name: &'static str,
    /// Part of the `all_experiments` suite. The others repeat a suite
    /// entry's scenario (one table of `tab_services`), sweep one design
    /// knob, or trace decisions.
    pub suite: bool,
    /// Runs the experiment under the command line's flags.
    pub run: fn(&Cli),
}

impl Experiment {
    const fn suite(name: &'static str, run: fn(&Cli)) -> Self {
        Experiment {
            name,
            suite: true,
            run,
        }
    }

    const fn alone(name: &'static str, run: fn(&Cli)) -> Self {
        Experiment {
            name,
            suite: false,
            run,
        }
    }
}

/// Every experiment, the suite in the paper's presentation order. One
/// line per entry, so the table is left as written.
#[rustfmt::skip]
static REGISTRY: [Experiment; 31] = [
    Experiment::suite("fig01_interference", |c| _ = fig01_interference::run(c.fast)),
    Experiment::suite("fig02_conflict_latency", |c| _ = fig02_conflict_latency::run(c.fast)),
    Experiment::suite("fig03_set_histogram", |c| _ = fig03_set_histogram::run(c.fast)),
    Experiment::suite("fig05_phase_metric", |c| _ = fig05_phase_metric::run(c.fast)),
    Experiment::suite("fig07_lifecycle", fig07_lifecycle::run_cli),
    Experiment::suite("fig08_miss_threshold", |c| _ = fig08_miss_threshold::run(c.fast)),
    Experiment::suite("fig09_ipc_threshold", |c| _ = fig09_ipc_threshold::run(c.fast)),
    Experiment::suite("fig10_dynamic_alloc", |c| _ = fig10_dynamic_alloc::run(c.fast)),
    Experiment::suite("fig11_latency_norm", |c| _ = fig11_latency_norm::run(c.fast)),
    Experiment::suite("fig12_perf_table_reuse", |c| _ = fig12_perf_table_reuse::run(c.fast)),
    Experiment::suite("fig13_streaming", |c| _ = fig13_streaming::run(c.fast)),
    Experiment::suite("fig14_two_receivers", |c| _ = fig14_two_receivers::run(c.fast)),
    Experiment::suite("fig15_mixed", |c| _ = fig15_mixed::run(c.fast)),
    Experiment::suite("fig17_spec2006", |c| _ = fig17_spec2006::run(c.fast)),
    Experiment::suite("tab_services", |c| _ = tab_services::run(c.fast)),
    Experiment::alone("tab04_redis", |c| _ = run_service(Redis, c.fast)),
    Experiment::alone("tab05_postgres", |c| tab_services::run_tab05(c.fast)),
    Experiment::alone("tab06_elasticsearch", |c| _ = run_service(Elasticsearch, c.fast)),
    Experiment::suite("ablate_replacement", |c| _ = ablate_replacement::run(c.fast)),
    Experiment::alone("ablate_policy", |c| ablations::policy(c.fast)),
    Experiment::alone("ablate_perf_table", |c| ablations::perf_table(c.fast)),
    Experiment::alone("ablate_settle", |c| ablations::settle(c.fast)),
    Experiment::alone("ablate_phase_thr", |c| ablations::phase_thr(c.fast)),
    Experiment::alone("ablate_interval", |c| ablations::interval(c.fast)),
    Experiment::suite("exp_coloring_vs_cat", |c| _ = exp_coloring::run(c.fast)),
    Experiment::suite("fault_sweep", |c| _ = fault_sweep::run(c.fast)),
    Experiment::suite("fleet_scale", |c| fatal_on_error("fleet_scale", fleet_scale::run(c))),
    Experiment::suite("fleet_churn", |c| fatal_on_error("fleet_churn", fleet_churn::run(c))),
    Experiment::suite("promise", |_| promise::run()),
    Experiment::alone("trace_decisions", |c| trace::decisions(c.fast)),
    Experiment::alone("trace_fig15", |c| trace::fig15(c.fast)),
];

/// Every experiment, in registry order.
pub fn registry() -> &'static [Experiment] {
    &REGISTRY
}

/// The experiment named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Classifies a fleet run's resctrl error at the exit boundary.
fn fatal_on_error<T>(name: &str, r: Result<T, resctrl::ResctrlError>) {
    if let Err(e) = r {
        panic!("{name} aborted: {e} (severity {:?})", e.severity());
    }
}
