//! Firmware-side thermistor conversion table.
//!
//! Marlin converts ADC counts to temperature with a per-thermistor lookup
//! table compiled into the firmware. We build the equivalent table from
//! the same Beta-model constants the plant's physics uses; the firmware
//! then interpolates counts → °C exactly as Marlin does, including the
//! quantization error a real table has.

/// Piecewise-linear counts → temperature table.
///
/// # Example
///
/// ```
/// use offramps_firmware::ThermistorTable;
/// let t = ThermistorTable::semitec_104gt2();
/// let temp = t.counts_to_celsius(512);
/// assert!(temp > 20.0 && temp < 120.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermistorTable {
    /// `(adc_counts, celsius)` pairs, counts ascending.
    entries: Vec<(u16, f64)>,
}

impl ThermistorTable {
    /// Builds a table from Beta-model NTC parameters by sampling the
    /// divider at fixed temperatures (the same procedure Marlin's
    /// `createTemperatureLookupMarlin.py` uses).
    pub(crate) fn from_beta(beta: f64, r25: f64, pullup: f64) -> Self {
        let mut entries: Vec<(u16, f64)> = Vec::new();
        let mut temp = -10.0;
        while temp <= 340.0 {
            let t_k = temp + 273.15;
            let r = r25 * (beta * (1.0 / t_k - 1.0 / 298.15)).exp();
            let counts = (r / (r + pullup) * 1023.0).round().clamp(0.0, 1023.0) as u16;
            entries.push((counts, temp));
            temp += 5.0;
        }
        entries.sort_by_key(|(c, _)| *c);
        entries.dedup_by_key(|(c, _)| *c);
        ThermistorTable { entries }
    }

    /// The Semitec 104GT-2-like hotend thermistor (Beta 4267).
    pub fn semitec_104gt2() -> Self {
        Self::from_beta(4267.0, 100_000.0, 4_700.0)
    }

    /// A generic EPCOS-100k-like bed thermistor (Beta 3950).
    pub(crate) fn epcos_100k() -> Self {
        Self::from_beta(3950.0, 100_000.0, 4_700.0)
    }

    /// Converts raw ADC counts to °C with linear interpolation. Counts
    /// outside the table saturate to implausible extremes so MINTEMP /
    /// MAXTEMP protection fires, exactly as in Marlin.
    pub fn counts_to_celsius(&self, counts: u16) -> f64 {
        let first = self.entries.first().expect("table is never empty");
        let last = self.entries.last().expect("table is never empty");
        if counts <= first.0 {
            // Hotter than the hottest table entry (low resistance).
            return first.1 + 50.0;
        }
        if counts >= last.0 {
            // Colder than the coldest entry (open thermistor).
            return last.1 - 50.0;
        }
        match self.entries.binary_search_by_key(&counts, |(c, _)| *c) {
            Ok(i) => self.entries[i].1,
            Err(i) => {
                let (c0, t0) = self.entries[i - 1];
                let (c1, t1) = self.entries[i];
                let frac = f64::from(counts - c0) / f64::from(c1 - c0);
                t0 + (t1 - t0) * frac
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_plant_physics() {
        // The plant computes counts from the same Beta model; the table
        // must invert it within interpolation error.
        let table = ThermistorTable::semitec_104gt2();
        for temp in [25.0_f64, 60.0, 120.0, 200.0, 215.0, 260.0] {
            let t_k = temp + 273.15;
            let r = 100_000.0 * (4267.0 * (1.0 / t_k - 1.0 / 298.15)).exp();
            let counts = (r / (r + 4_700.0) * 1023.0).round() as u16;
            let back = table.counts_to_celsius(counts);
            assert!(
                (back - temp).abs() < 3.0,
                "{temp}C -> {counts} counts -> {back}C"
            );
        }
    }

    #[test]
    fn extremes_saturate_to_implausible() {
        let t = ThermistorTable::semitec_104gt2();
        assert!(t.counts_to_celsius(0) > 300.0, "short = implausibly hot");
        assert!(t.counts_to_celsius(1023) < 0.0, "open = implausibly cold");
    }

    #[test]
    fn monotone_decreasing_in_counts() {
        let t = ThermistorTable::semitec_104gt2();
        let mut last = f64::INFINITY;
        for c in (0..=1023).step_by(8) {
            let v = t.counts_to_celsius(c);
            assert!(v <= last + 1e-9, "temperature must fall as counts rise");
            last = v;
        }
    }

    #[test]
    fn bed_table_differs() {
        let hot = ThermistorTable::semitec_104gt2();
        let bed = ThermistorTable::epcos_100k();
        assert_ne!(hot, bed);
    }
}
