//! One module per table/figure of the paper's evaluation. Each exposes a
//! `run()` returning a printable report; binaries and `run_all` wrap
//! these.

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table2;
pub mod table34;
