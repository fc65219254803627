//! Result emission: aligned text tables on stdout, JSON under `results/`,
//! and the named claims every experiment binary checks against its rows.

use serde::Serialize;
use std::fs;
use std::path::Path;

/// Writes `value` as pretty JSON to `results/<name>.json` (creating the
/// directory when needed) and returns the path written.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<String> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializable result");
    fs::write(&path, json)?;
    Ok(path.display().to_string())
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// A sparse ASCII histogram for distribution figures (Figs. 10, 11).
pub fn ascii_histogram(counts: &[(String, usize)], max_width: usize) -> String {
    let max = counts.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
    let label_w = counts.iter().map(|(l, _)| l.len()).max().unwrap_or(4);
    let mut out = String::new();
    for (label, c) in counts {
        let bar = "#".repeat((c * max_width).div_ceil(max).min(max_width));
        out.push_str(&format!("{label:>label_w$} | {bar} {c}\n"));
    }
    out
}

/// Nearest-rank percentile of an ascending slice: the element at
/// `round((len - 1) * q)`, or 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// One named statement about the rows a binary just computed: a paper claim
/// quoted from EXPERIMENTS.md, or a contract the grid must keep.
#[derive(Debug)]
pub struct Claim {
    /// What the claim says; printed on its line and in the failure.
    name: String,
    /// Whether the statement is true of this run.
    holds: bool,
    /// An expected-partial claim: EXPERIMENTS.md records that it does not
    /// reproduce, so it is broken once it starts to hold.
    partial: bool,
}

impl Claim {
    /// A claim that must hold.
    pub fn new(name: impl Into<String>, holds: bool) -> Self {
        Self {
            name: name.into(),
            holds,
            partial: false,
        }
    }

    /// An expected-partial claim: it must *not* hold.
    pub fn partial(name: impl Into<String>, holds: bool) -> Self {
        Self {
            partial: true,
            ..Self::new(name, holds)
        }
    }

    /// Whether this run contradicts what EXPERIMENTS.md records.
    pub fn broken(&self) -> bool {
        self.holds == self.partial
    }

    /// The claim's printed line.
    fn line(&self) -> String {
        let (status, note) = match (self.broken(), self.partial) {
            (false, false) => ("holds", ""),
            (false, true) => ("partial", " (expected-partial: does not hold)"),
            (true, false) => ("BROKEN", ""),
            (true, true) => (
                "BROKEN",
                " (expected-partial, now holds: update EXPERIMENTS.md)",
            ),
        };
        format!("{status:<7} {}{note}", self.name)
    }
}

/// Prints every claim, then exits 1 naming each broken one. Call it after
/// the results are written, so a broken run still leaves them to read.
pub fn check_claims(claims: &[Claim]) {
    println!("\nclaims:");
    for claim in claims {
        println!("  {}", claim.line());
    }
    let broken: Vec<&str> = claims
        .iter()
        .filter(|c| c.broken())
        .map(|c| c.name.as_str())
        .collect();
    if !broken.is_empty() {
        eprintln!("broken claim(s): {}", broken.join("; "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        // the value column starts at the same offset in all rows
        let col = lines[3].find('2').unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
    }

    #[test]
    fn histogram_scales_to_width() {
        let h = ascii_histogram(&[("0".into(), 10), ("1".into(), 5), ("2".into(), 0)], 20);
        let lines: Vec<&str> = h.lines().collect();
        assert!(lines[0].matches('#').count() == 20);
        assert!(lines[1].matches('#').count() == 10);
        assert!(lines[2].matches('#').count() == 0);
    }

    #[test]
    fn claims_are_judged_against_the_record() {
        let held = Claim::new("async beats sync", true);
        assert!(!held.broken());
        assert_eq!(held.line(), "holds   async beats sync");

        let broken = Claim::new("async beats sync", false);
        assert!(broken.broken());
        assert_eq!(broken.line(), "BROKEN  async beats sync");

        let still_partial = Claim::partial("FedEM beats FedAvg", false);
        assert!(!still_partial.broken());
        assert!(still_partial
            .line()
            .starts_with("partial FedEM beats FedAvg"));

        // a partial that starts to hold fails too, so the doc gets updated
        let now_holds = Claim::partial("FedEM beats FedAvg", true);
        assert!(now_holds.broken());
        assert!(now_holds.line().starts_with("BROKEN  FedEM beats FedAvg"));
        assert!(now_holds.line().contains("now holds"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.9), 0);
        assert_eq!(percentile(&[4], 0.5), 4);
        // index round((len - 1) * q): 0.5 * 3 = 1.5 rounds away from zero
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 3);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.9), 4);
        assert_eq!(percentile(&[0, 0, 1, 5, 9], 0.0), 0);
    }

    #[test]
    fn write_json_roundtrips() {
        #[derive(Serialize)]
        struct S {
            x: u32,
        }
        let path = write_json("unit_test_tmp", &S { x: 7 }).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"x\": 7"));
        std::fs::remove_file(path).unwrap();
    }
}
