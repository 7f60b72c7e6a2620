//! Shared experiment runners for the OFFRAMPS reproduction.
//!
//! Every table and figure of the paper has a runner here. The runnable
//! examples in the workspace root print them and write their JSON and
//! CSV copies to `target/experiments/`, and the integration tests pin
//! the same runners, so the printed analyses and the tested numbers
//! can never drift apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod baseline;
pub mod cache;
pub mod campaign;
pub mod corpus;
pub mod detectors;
pub mod fig4;
#[cfg(test)]
mod fold_reference;
pub mod json;
pub mod overhead;
pub mod table1;
pub mod table2;
pub mod workloads;

/// Writes `contents` to `target/experiments/<name>` under the working
/// directory, creating the directory first: the examples' machine-
/// readable copies of the paper's tables and figures.
pub fn write_experiment(name: &str, contents: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), contents)
}
