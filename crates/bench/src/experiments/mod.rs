//! One module per paper artifact. See DESIGN.md's experiment index.

pub mod fig1;
pub mod intensity;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod gemm;
pub mod memory;
pub mod overhead;
pub mod precision;
pub mod profiles;
pub mod runtime;
pub mod table1;
pub mod table2;
