//! One module per reproduced table, figure and ablation study.

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table2;
