//! The reconstructed-evaluation experiments (indexed in the root README,
//! "Evaluation").
//!
//! Each module regenerates one table or figure of the evaluation and
//! returns a [`crate::report::Table`]; the `src/bin/` wrappers print them.

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

/// Runs every experiment in index order, returning the rendered tables.
pub fn run_all() -> Vec<crate::report::Table> {
    vec![
        table1::run(),
        fig1::run(),
        fig2::run(),
        fig3::run(),
        fig4::run(),
        fig5::run(),
        table2::run(),
        fig6::run(),
        table3::run(),
        table4::run(),
        fig7::run(),
        fig8::run(),
    ]
}
