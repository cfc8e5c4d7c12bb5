//! The reconstructed-evaluation experiments (indexed in the root README,
//! "Evaluation").
//!
//! Each module regenerates one table or figure of the evaluation and
//! returns a [`crate::report::Table`]; the `run_all` binary prints them.

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

/// One experiment: its id in the README index and the function that
/// regenerates it.
pub type Experiment = (&'static str, fn() -> crate::report::Table);

/// Every experiment, in index order.
pub const ALL: [Experiment; 12] = [
    ("table1", table1::run),
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("table2", table2::run),
    ("fig6", fig6::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
];
