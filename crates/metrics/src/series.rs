//! Time-series recording: (t, value) pairs captured during a scenario run
//! (e.g. the serving/neighbor RSS traces behind Fig. 2c).

/// A named (time, value) series with monotone timestamps.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    pub name: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point; panics on non-monotone time or non-finite values.
    pub fn push(&mut self, t: f64, v: f64) {
        assert!(t.is_finite() && v.is_finite(), "non-finite point");
        if let Some(&(last_t, _)) = self.points.last() {
            assert!(t >= last_t, "time must be monotone: {t} < {last_t}");
        }
        self.points.push((t, v));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Minimum and maximum value over the series.
    pub fn range(&self) -> Option<(f64, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(_, v) in &self.points {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// Fraction of time the value satisfied `pred` (piecewise-constant,
    /// each sample holds until the next). This computes e.g. "fraction of
    /// the run the beam was aligned".
    pub fn fraction_where<F: Fn(f64) -> bool>(&self, pred: F) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let mut hit = 0.0;
        let mut total = 0.0;
        for w in self.points.windows(2) {
            let dt = w[1].0 - w[0].0;
            total += dt;
            if pred(w[0].1) {
                hit += dt;
            }
        }
        (total > 0.0).then_some(hit / total)
    }

    /// CSV dump: `t,value` with the series name as header.
    pub fn to_csv(&self) -> String {
        let mut out = format!("t,{}\n", self.name);
        for &(t, v) in &self.points {
            out.push_str(&format!("{t:.6},{v:.6}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("rss");
        s.push(0.0, -60.0);
        s.push(1.0, -63.0);
        s.push(2.0, -58.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.range(), Some((-63.0, -58.0)));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_time_panics() {
        let mut s = TimeSeries::new("x");
        s.push(1.0, 0.0);
        s.push(0.5, 0.0);
    }

    #[test]
    fn fraction_where_alignment() {
        let mut s = TimeSeries::new("align");
        s.push(0.0, 1.0);
        s.push(6.0, 0.0);
        s.push(10.0, 0.0);
        let frac = s.fraction_where(|v| v > 0.5).unwrap();
        assert!((frac - 0.6).abs() < 1e-12);
    }

    #[test]
    fn csv_format() {
        let mut s = TimeSeries::new("rss");
        s.push(0.25, -61.5);
        let csv = s.to_csv();
        assert!(csv.starts_with("t,rss\n"));
        assert!(csv.contains("0.250000,-61.500000"));
    }

    #[test]
    fn empty_series_behaviour() {
        let s = TimeSeries::new("x");
        assert!(s.is_empty());
        assert_eq!(s.range(), None);
        assert_eq!(s.fraction_where(|_| true), None);
    }
}
