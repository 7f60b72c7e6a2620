// D5 positive: metric-name hygiene violations.

fn publish(obs: &Obs, reg: &mut MetricsRegistry) {
    obs.count("Kernel.Events", 1);
    obs.count("flat_name", 1);
    obs.observe("campaign.margin", -3);
    obs.count("campaign.margin", 1);
    reg.add("pool.claims", MetricClass::Deterministic, 1);
    reg.add("pool.claims", MetricClass::Execution, 1);
}
