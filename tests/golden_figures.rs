//! The eight figure functions render byte-identically to the committed
//! text under `tests/golden/`, at each figure binary's default trial
//! count. Each golden file is that binary's stdout: `render(&run(n))`
//! plus the trailing newline `println!` adds.
//!
//! A change that moves a figure changes what the paper trials compute:
//! regenerate the files from the figure binaries
//! (`./target/release/fig2a > tests/golden/fig2a.txt`, …) in the same
//! change and say why they moved. All eight take about 5 s in a debug
//! build on two cores.
//!
//! The eight examples are pinned the same way, by CI instead of by this
//! test: `tests/golden/examples/<name>.txt` is each example's stdout, and
//! the CI examples step `cmp`s a release run against it. A change that
//! moves a realization on purpose regenerates them from the repository
//! root in the same change:
//!
//! ```text
//! cargo build --release --examples
//! for src in examples/*.rs; do
//!     ex=$(basename "$src" .rs)
//!     ./target/release/examples/"$ex" > tests/golden/examples/"$ex".txt
//! done
//! ```

use silent_tracker_repro::st_bench;

fn assert_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = format!("{rendered}\n");
    if got != golden {
        panic!("{name} moved from {path}\n--- golden\n{golden}--- rendered\n{got}");
    }
}

#[test]
fn fig2a_matches_its_golden_text() {
    assert_golden("fig2a", &st_bench::fig2a::render(&st_bench::fig2a::run(40)));
}

#[test]
fn fig2c_matches_its_golden_text() {
    assert_golden("fig2c", &st_bench::fig2c::render(&st_bench::fig2c::run(40)));
}

#[test]
fn interruption_matches_its_golden_text() {
    let r = st_bench::interruption::run(20);
    assert_golden("interruption", &st_bench::interruption::render(&r));
}

#[test]
fn init_access_matches_its_golden_text() {
    let r = st_bench::init_access::run(20);
    assert_golden("init_access", &st_bench::init_access::render(&r));
}

#[test]
fn ablation_matches_its_golden_text() {
    let r = st_bench::ablation::run(10);
    assert_golden("ablation", &st_bench::ablation::render(&r));
}

#[test]
fn resource_matches_its_golden_text() {
    let r = st_bench::resource::run(10);
    assert_golden("resource", &st_bench::resource::render(&r));
}

#[test]
fn robustness_matches_its_golden_text() {
    let r = st_bench::robustness::run(10);
    assert_golden("robustness", &st_bench::robustness::render(&r));
}

#[test]
fn patterns_matches_its_golden_text() {
    let r = st_bench::patterns::run(10);
    assert_golden("patterns", &st_bench::patterns::render(&r));
}
