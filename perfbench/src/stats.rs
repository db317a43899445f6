//! Sample summaries, the operation tally and the result line.

/// Bytes per mebibyte.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Repeated measurements of one quantity.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one measurement.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median; 0 when there are no samples.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest of the usual reporting percentiles that still has at
    /// least ten samples above it, with its nearest-rank value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len() as f64;
        [99.0, 95.0, 90.0, 75.0, 50.0]
            .into_iter()
            .find(|q| n * (1.0 - q / 100.0) >= 10.0)
            .map(|q| {
                let rank = ((q / 100.0 * n).ceil() as usize).max(1);
                (q, v[rank - 1])
            })
    }

    /// `name: median <v> <unit> over <n> samples, p<q> <v> <unit>`.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let mut out = format!(
            "{name}: median {:.6} {unit} over {} samples",
            self.median(),
            self.len()
        );
        match self.tail() {
            Some((q, v)) => out.push_str(&format!(", p{q} {v:.6} {unit}")),
            None => out.push_str(", too few samples for a tail percentile"),
        }
        out
    }
}

/// Operations attempted and failed.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and passes its value through; a failure is
    /// counted and reported on stderr.
    pub fn ok<T>(&mut self, op: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {op}: {e}");
                None
            }
        }
    }
}

/// One reported metric.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

impl Metric {
    /// A metric named `name`, measured in `unit`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The result line: one JSON object with the tally and every metric.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// 64-bit FNV-1a over `bytes`: the release digest two runs compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
