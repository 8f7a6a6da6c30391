//! Run every figure/table reproduction harness in sequence.
//!
//! Equivalent to running the nine binaries named in
//! [`croesus_bench::HARNESSES`] (`fig2` … `fig6c`, `table1`, `table2`) one
//! after another; kept as process invocations so each harness stays
//! independently runnable and this driver cannot drift from them.

use croesus_bench::HARNESSES;
use std::process::Command;

fn main() {
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    for h in HARNESSES {
        let path = dir.join(h);
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to run {h}: {e}"));
        assert!(status.success(), "{h} exited with {status}");
    }
    println!("\nAll {} harnesses completed.", HARNESSES.len());
}
