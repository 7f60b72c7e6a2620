// D5 negative: canonical lowercase dotted names, one kind and one
// class per name, format holes standing for a detector name.

fn publish(obs: &Obs, reg: &mut MetricsRegistry) {
    obs.count("kernel.events_committed", 12);
    obs.count("kernel.events_committed", 3);
    obs.observe(&format!("verdict.{}.margin_micros", "power"), -40);
    reg.add("pool.chunk_claims", MetricClass::Execution, 9);
    reg.add("store.scan.lines", MetricClass::Deterministic, 7);
}
