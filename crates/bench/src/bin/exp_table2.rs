//! Table II — ablation study: KGLink w/o msk, w/o ct, w/o fv, larger PLM.
//!
//! Paper reference (Table II):
//! ```text
//! Variant          SemTab acc/wF1    VizNet acc/wF1
//! KGLink w/o msk   86.14 / 84.54     95.95 / 95.67
//! KGLink w/o ct    86.27 / 84.56     95.83 / 95.48
//! KGLink w/o fv    87.02 / 85.68     95.98 / 95.70
//! KGLink DeBERTa   87.24 / 85.81     96.98 / 96.37
//! KGLink           87.12 / 85.78     96.28 / 96.07
//! ```

use kglink_bench::{print_markdown, run_kglink, ExpEnv, Which};
use kglink_core::config::EncoderSize;

type ConfigTweak = Box<dyn Fn(kglink_core::KgLinkConfig) -> kglink_core::KgLinkConfig>;

fn main() {
    let env = ExpEnv::load();
    let variants: Vec<(&str, ConfigTweak)> = vec![
        (
            "KGLink w/o msk",
            Box::new(|c: kglink_core::KgLinkConfig| c.without_mask_task()),
        ),
        (
            "KGLink w/o ct",
            Box::new(|c: kglink_core::KgLinkConfig| c.without_kg()),
        ),
        (
            "KGLink w/o fv",
            Box::new(|c: kglink_core::KgLinkConfig| c.without_feature_vector()),
        ),
        (
            "KGLink large-PLM",
            Box::new(|mut c: kglink_core::KgLinkConfig| {
                c.encoder = EncoderSize::Large;
                c
            }),
        ),
        ("KGLink", Box::new(|c| c)),
    ];
    let mut rows = Vec::new();
    for (name, tweak) in &variants {
        let mut row = vec![name.to_string()];
        for which in [Which::SemTab, Which::VizNet] {
            let config = tweak(env.kglink_config(which));
            let (r, _, _) = run_kglink(&env, which, config, name);
            row.push(format!("{:.2}", r.summary.accuracy_pct()));
            row.push(format!("{:.2}", r.summary.weighted_f1_pct()));
        }
        rows.push(row);
    }
    print_markdown(
        "Table II — ablation study (measured)",
        &[
            "Variant",
            "SemTab Acc",
            "SemTab wF1",
            "VizNet Acc",
            "VizNet wF1",
        ],
        &rows,
    );
    println!(
        "Note: 'KGLink large-PLM' plays the role of the paper's DeBERTa row — a larger\n\
         encoder behind the same interface (no pre-trained DeBERTa exists in this environment)."
    );
}
