//! CSV import/export for client datasets.
//!
//! The paper's pipeline starts from CSV exports of the Shenzhen platform.
//! These helpers let users round-trip [`ClientData`] through the same
//! simple format (`timestamp,demand,temperature_c,humidity_pct,raining`),
//! with no external CSV dependency.

use crate::generator::ClientData;
use crate::profile::Zone;
use crate::weather::WeatherPoint;
use std::fmt::Write as _;

/// Error produced when parsing a dataset CSV.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// The header row is missing or malformed.
    BadHeader(String),
    /// A data row has the wrong number of fields.
    BadRowShape {
        /// 1-based line number.
        line: usize,
        /// Number of fields found.
        fields: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: &'static str,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::BadHeader(h) => write!(f, "bad CSV header: {h:?}"),
            CsvError::BadRowShape { line, fields } => {
                write!(f, "line {line}: expected 5 fields, found {fields}")
            }
            CsvError::BadField { line, column } => {
                write!(f, "line {line}: could not parse column {column}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

const HEADER: &str = "timestamp,demand,temperature_c,humidity_pct,raining";

/// Serialises a client's dataset to CSV.
///
/// # Examples
///
/// ```
/// use evfad_data::{csv, DatasetConfig, ShenzhenGenerator, Zone};
///
/// let client = ShenzhenGenerator::new(DatasetConfig::small(48, 1)).generate_zone(Zone::Z102);
/// let text = csv::to_csv(&client);
/// let back = csv::from_csv(&text, Zone::Z102)?;
/// assert_eq!(back.demand.len(), 48);
/// # Ok::<(), evfad_data::csv::CsvError>(())
/// ```
pub fn to_csv(client: &ClientData) -> String {
    let mut out = String::with_capacity(client.demand.len() * 48);
    out.push_str(HEADER);
    out.push('\n');
    for (t, (demand, weather)) in client.demand.iter().zip(&client.weather).enumerate() {
        let _ = writeln!(
            out,
            "{t},{demand},{},{},{}",
            weather.temperature_c,
            weather.humidity_pct,
            if weather.raining { 1 } else { 0 }
        );
    }
    out
}

/// Parses a dataset CSV produced by [`to_csv`] (or hand-authored in the
/// same format). Rows must be in timestamp order starting at zero, every
/// number must be finite, and `raining` is `1`/`true` or `0`/`false`.
///
/// # Errors
///
/// Returns [`CsvError`] on a malformed header, row, or field; a timestamp
/// out of order, a non-finite number or another `raining` token is a
/// [`CsvError::BadField`] naming its column.
pub fn from_csv(text: &str, zone: Zone) -> Result<ClientData, CsvError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| CsvError::BadHeader("<empty file>".into()))?;
    if header.trim() != HEADER {
        return Err(CsvError::BadHeader(header.to_string()));
    }
    let mut demand = Vec::new();
    let mut weather = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(CsvError::BadRowShape {
                line: line_no,
                fields: fields.len(),
            });
        }
        let bad = |column| CsvError::BadField {
            line: line_no,
            column,
        };
        let parse = |s: &str, column: &'static str| -> Result<f64, CsvError> {
            s.trim()
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .ok_or(bad(column))
        };
        if fields[0].trim().parse() != Ok(demand.len()) {
            return Err(bad("timestamp"));
        }
        demand.push(parse(fields[1], "demand")?);
        let temperature_c = parse(fields[2], "temperature_c")?;
        let humidity_pct = parse(fields[3], "humidity_pct")?;
        let raining = match fields[4].trim() {
            "1" => true,
            "0" => false,
            t if t.eq_ignore_ascii_case("true") => true,
            t if t.eq_ignore_ascii_case("false") => false,
            _ => return Err(bad("raining")),
        };
        weather.push(WeatherPoint {
            temperature_c,
            humidity_pct,
            raining,
        });
    }
    Ok(ClientData {
        zone,
        demand,
        weather,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DatasetConfig, ShenzhenGenerator};

    fn sample_client() -> ClientData {
        ShenzhenGenerator::new(DatasetConfig::small(30, 7)).generate_zone(Zone::Z105)
    }

    #[test]
    fn round_trip_preserves_values() {
        let client = sample_client();
        let text = to_csv(&client);
        let back = from_csv(&text, Zone::Z105).unwrap();
        assert_eq!(back.demand.len(), client.demand.len());
        for (a, b) in client.demand.iter().zip(&back.demand) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in client.weather.iter().zip(&back.weather) {
            assert_eq!(a.raining, b.raining);
            assert!((a.temperature_c - b.temperature_c).abs() < 1e-12);
        }
    }

    #[test]
    fn header_is_first_line() {
        let text = to_csv(&sample_client());
        assert!(text.starts_with("timestamp,demand,"));
    }

    #[test]
    fn rejects_wrong_header() {
        let err = from_csv("a,b,c\n1,2,3", Zone::Z102).unwrap_err();
        assert!(matches!(err, CsvError::BadHeader(_)));
    }

    #[test]
    fn rejects_short_row() {
        let text = format!("{HEADER}\n0,1.0,20.0\n");
        let err = from_csv(&text, Zone::Z102).unwrap_err();
        assert_eq!(err, CsvError::BadRowShape { line: 2, fields: 3 });
    }

    #[test]
    fn rejects_bad_number() {
        let text = format!("{HEADER}\n0,notanumber,20.0,50.0,0\n");
        let err = from_csv(&text, Zone::Z102).unwrap_err();
        assert!(matches!(
            err,
            CsvError::BadField {
                line: 2,
                column: "demand"
            }
        ));
    }

    #[test]
    fn skips_blank_lines() {
        let text = format!("{HEADER}\n0,1.5,20.0,50.0,1\n\n1,2.5,21.0,55.0,0\n");
        let data = from_csv(&text, Zone::Z108).unwrap();
        assert_eq!(data.demand, vec![1.5, 2.5]);
        assert!(data.weather[0].raining);
        assert!(!data.weather[1].raining);
    }

    #[test]
    fn raining_accepts_true_literal() {
        let text = format!("{HEADER}\n0,1.0,20.0,50.0,TRUE\n");
        let data = from_csv(&text, Zone::Z102).unwrap();
        assert!(data.weather[0].raining);
    }

    #[test]
    fn rejects_a_timestamp_out_of_order() {
        for rows in ["1,1.0,20.0,50.0,0", "0,1.0,20.0,50.0,0\n0,2.0,20.0,50.0,0"] {
            let text = format!("{HEADER}\n{rows}\n");
            let line = 1 + rows.lines().count();
            assert_eq!(
                from_csv(&text, Zone::Z102).unwrap_err(),
                CsvError::BadField {
                    line,
                    column: "timestamp"
                }
            );
        }
    }

    #[test]
    fn rejects_a_non_finite_demand() {
        for value in ["NaN", "inf", "-inf"] {
            let text = format!("{HEADER}\n0,{value},20.0,50.0,0\n");
            assert_eq!(
                from_csv(&text, Zone::Z102).unwrap_err(),
                CsvError::BadField {
                    line: 2,
                    column: "demand"
                }
            );
        }
    }

    #[test]
    fn rejects_an_unknown_raining_token() {
        for token in ["yes", "2", ""] {
            let text = format!("{HEADER}\n0,1.0,20.0,50.0,{token}\n");
            assert_eq!(
                from_csv(&text, Zone::Z102).unwrap_err(),
                CsvError::BadField {
                    line: 2,
                    column: "raining"
                }
            );
        }
        let text = format!("{HEADER}\n0,1.0,20.0,50.0,False\n");
        assert!(!from_csv(&text, Zone::Z102).unwrap().weather[0].raining);
    }

    #[test]
    fn error_displays() {
        assert!(CsvError::BadHeader("x".into()).to_string().contains("x"));
        assert!(CsvError::BadRowShape { line: 3, fields: 2 }
            .to_string()
            .contains('3'));
        assert!(CsvError::BadField {
            line: 4,
            column: "demand"
        }
        .to_string()
        .contains("demand"));
    }
}
