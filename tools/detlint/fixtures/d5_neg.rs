// D5 negative: canonical lowercase dotted names, one kind per name,
// format holes standing for a detector name.

fn publish(obs: &Obs) {
    obs.count("kernel.events_committed", 12);
    obs.count("kernel.events_committed", 3);
    obs.observe(&format!("verdict.{}.margin_micros", "power"), -40);
}
