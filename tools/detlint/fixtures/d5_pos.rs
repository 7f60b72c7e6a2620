// D5 positive: metric-name hygiene violations.

fn publish(obs: &Obs) {
    obs.count("Kernel.Events", 1);
    obs.count("flat_name", 1);
    obs.observe("campaign.margin", -3);
    obs.count("campaign.margin", 1);
}
