//! Minimal CSV ingestion for the CLI and for programmatic use: a time
//! column at a constant step followed by numeric variable columns.

use ftpm_timeseries::TimeSeries;

/// Parses CSV text into one [`TimeSeries`] per variable column.
///
/// Expected shape:
///
/// ```csv
/// time,kitchen,toaster
/// 0,120.0,0.0
/// 5,130.0,900.0
/// ```
///
/// The time column must increase by a constant positive step.
///
/// # Errors
///
/// Returns a human-readable message on any structural problem (ragged
/// rows, non-numeric or non-finite cells, irregular timestamps).
pub fn parse_csv(text: &str) -> Result<Vec<TimeSeries>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty csv")?;
    let names: Vec<&str> = header.split(',').skip(1).map(str::trim).collect();
    if names.is_empty() {
        return Err("csv needs a time column plus at least one variable".into());
    }
    let mut times: Vec<i64> = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for (lno, line) in lines.enumerate() {
        let row = lno + 2;
        let mut fields = line.split(',').map(str::trim);
        let t = fields.next().ok_or_else(|| format!("line {row}: missing time"))?;
        times.push(
            t.parse::<i64>()
                .map_err(|e| format!("line {row}: bad time {t:?}: {e}"))?,
        );
        for (name, column) in names.iter().zip(columns.iter_mut()) {
            let f = fields
                .next()
                .ok_or_else(|| format!("line {row}: missing value for {name}"))?;
            let v = f
                .parse::<f64>()
                .map_err(|e| format!("line {row}: bad value {f:?}: {e}"))?;
            // NaN/inf parse as f64 but no symbolizer can place them.
            if !v.is_finite() {
                return Err(format!("line {row}: non-finite value {f:?} for {name}"));
            }
            column.push(v);
        }
        if fields.next().is_some() {
            return Err(format!("line {row}: too many fields"));
        }
    }
    if times.len() < 2 {
        return Err("need at least two data rows".into());
    }
    // Checked: a step that overflows i64 is an irregular step, so
    // timestamps near the range ends get the documented error.
    let step = times[1].checked_sub(times[0]).unwrap_or(0);
    if step <= 0
        || !times
            .windows(2)
            .all(|w| w[1].checked_sub(w[0]) == Some(step))
    {
        return Err("time column must increase at a constant step".into());
    }
    Ok(names
        .iter()
        .zip(columns)
        .map(|(name, column)| TimeSeries::new(*name, times[0], step, column))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_csv() {
        let series = parse_csv("time,a,b\n0,1.5,2\n5,0.5,3\n10,0,4\n").unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name(), "a");
        assert_eq!(series[0].step(), 5);
        assert_eq!(series[1].values(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn rejects_irregular_timestamps() {
        let err = parse_csv("time,a\n0,1\n5,2\n12,3\n").unwrap_err();
        assert!(err.contains("constant step"), "{err}");
        // The step between the i64 range ends overflows; it must be
        // rejected, not panic.
        let extremes = "time,a\n-9223372036854775808,1\n9223372036854775807,2\n";
        let err = parse_csv(extremes).unwrap_err();
        assert!(err.contains("constant step"), "{err}");
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = parse_csv("time,a,b\n0,1\n").unwrap_err();
        assert!(err.contains("missing value"), "{err}");
        let err = parse_csv("time,a\n0,1,9\n5,2,9\n").unwrap_err();
        assert!(err.contains("too many fields"), "{err}");
    }

    #[test]
    fn rejects_non_numeric_cells() {
        let err = parse_csv("time,a\n0,x\n5,1\n").unwrap_err();
        assert!(err.contains("bad value"), "{err}");
        // NaN and infinities parse as f64 but are not measurements.
        for cell in ["NaN", "inf", "-inf"] {
            let err = parse_csv(&format!("time,a\n0,1\n5,{cell}\n")).unwrap_err();
            assert!(err.contains("line 3: non-finite value"), "{err}");
        }
    }

    #[test]
    fn rejects_too_short_input() {
        assert!(parse_csv("time,a\n0,1\n").is_err());
        assert!(parse_csv("").is_err());
        assert!(parse_csv("time\n0\n5\n").is_err());
    }

    #[test]
    fn skips_blank_lines() {
        let series = parse_csv("time,a\n\n0,1\n\n5,2\n\n").unwrap();
        assert_eq!(series[0].len(), 2);
    }
}
