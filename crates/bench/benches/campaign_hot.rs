//! Campaign hot-path bench: one sweep over the mini workload at one
//! thread. The full pinned trajectory (mini + corpus, recorded
//! baseline, medians, speedups) is `offramps-cli bench`; this bench is
//! the quick interactive probe for kernel work.

use criterion::{Criterion, SamplingMode};

use offramps_bench::campaign::{run_campaign, sweep_attacks, CampaignOptions, CampaignSpec};
use offramps_bench::workloads::Workload;

/// The sweep grid on the mini workload only — small enough to sample
/// repeatedly, shaped exactly like the pinned sweep's hot path.
fn mini_sweep() -> CampaignSpec {
    let mut spec = CampaignSpec::default_matrix(42);
    spec.trojans = sweep_attacks();
    spec.workloads = vec![Workload::mini()];
    spec
}

fn benches(c: &mut Criterion) {
    let spec = mini_sweep();
    let scenarios = spec.scenarios().expect("pinned sweep expands").len();
    println!("\n============ CAMPAIGN HOT PATH ({scenarios} scenarios/iter) ============");

    let mut group = c.benchmark_group("campaign_sweep");
    group.sampling_mode(SamplingMode::Flat).sample_size(10);
    group.bench_function("solo", |b| {
        b.iter(|| {
            let (report, _) =
                run_campaign(&spec, CampaignOptions::threads(1)).expect("campaign runs");
            assert!(report.total_events() > 0);
            report.total_events()
        })
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
