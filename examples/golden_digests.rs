//! Prints the golden behaviour digests:
//!
//! ```text
//! cargo run --release --example golden_digests > tests/golden/digests.txt
//! ```
//!
//! `tests/golden_digests.rs` regenerates the same text and fails when it
//! differs from the committed file.

#[path = "../tests/golden/generator.rs"]
mod generator;

fn main() {
    print!("{}", generator::golden());
}
