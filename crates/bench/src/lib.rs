//! Shared helpers for the per-figure/table reproduction harnesses.
//!
//! Each binary in `src/bin/` regenerates one figure or table from the
//! paper's evaluation (§5); `src/bin/all.rs` runs the full set. This
//! library holds the common run configurations and plain-text table
//! rendering so every harness prints comparable, paper-shaped output.

use croesus_core::{Croesus, CroesusBuilder, ThresholdPair};
use croesus_video::VideoPreset;

pub mod contention;

/// Frames per experiment. 300 frames ≈ 10 s of 30 fps video — enough for
/// stable statistics while keeping every harness under a few seconds.
pub const FRAMES: u64 = 300;

/// The workspace-wide experiment seed.
pub const SEED: u64 = 42;

/// The default accuracy floor µ used where the paper does not state one.
pub const DEFAULT_MU: f64 = 0.80;

/// The figure/table harnesses in `src/bin/`, in the order the `all`
/// binary runs them.
pub const HARNESSES: [&str; 9] = [
    "fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c", "table1", "table2",
];

/// The standard Croesus run at a threshold pair: the experiment's frames
/// and seed over the builder's defaults. Clone it to vary one option.
pub fn builder(preset: VideoPreset, pair: ThresholdPair) -> CroesusBuilder {
    Croesus::builder()
        .preset(preset)
        .thresholds(pair)
        .frames(FRAMES)
        .seed(SEED)
}

/// A plain-text table printer with right-aligned numeric columns.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row/header arity mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format milliseconds compactly.
pub fn ms(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format an F-score / ratio with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!();
    println!("== {title} ==");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn table_accepts_matching_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_arity_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(123.456), "123.5");
        assert_eq!(pct(0.385), "38.5%");
        assert_eq!(f2(0.8123), "0.81");
    }

    /// A harness can neither be added without joining `all` nor be
    /// deleted while still listed.
    #[test]
    fn harness_list_matches_the_bin_directory() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let bins: BTreeSet<String> = std::fs::read_dir(&dir)
            .expect("read src/bin")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        let expected: BTreeSet<String> = HARNESSES
            .iter()
            .chain(&["all"])
            .map(|h| h.to_string())
            .collect();
        assert_eq!(bins, expected);
    }

    #[test]
    fn config_uses_experiment_defaults() {
        let d = builder(VideoPreset::ParkDog, ThresholdPair::new(0.3, 0.6)).build();
        let c = d.config();
        assert_eq!(c.preset, VideoPreset::ParkDog);
        assert_eq!(c.num_frames, FRAMES);
        assert_eq!(c.seed, SEED);
    }
}
