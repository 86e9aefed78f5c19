//! Golden digests committed with the benchmark.
//!
//! `golden.txt` holds one `key seed digest` line per pinned output. An
//! output that is the same for every seed (figures, claims, the analytic
//! sweeps) is pinned under seed `*` and checked on every run. An output
//! that depends on the seed (functional results, serving reports) is
//! pinned for [`DEFAULT_SEED`] only; other seeds rely on the in-run
//! oracles. A missing pin counts as a failure wherever a pin is due.
//! A failing pin prints the digest the run observed; after a change
//! meant to alter outputs, copy those digests into `golden.txt`.

use std::collections::BTreeMap;

use crate::harness::Ctx;

/// The seed the seed-dependent golden digests are pinned for.
pub const DEFAULT_SEED: u64 = 1;

const GOLDEN: &str = include_str!("../golden.txt");

fn parse(text: &str) -> BTreeMap<(String, String), String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((
                (f.next()?.to_owned(), f.next()?.to_owned()),
                f.next()?.to_owned(),
            ))
        })
        .collect()
}

fn seed_tag(ctx: &Ctx, seed_independent: bool) -> String {
    if seed_independent {
        "*".to_owned()
    } else {
        ctx.seed.to_string()
    }
}

/// Compares every pin of `ctx` with the committed digests.
pub fn check(ctx: &mut Ctx) {
    let golden = parse(GOLDEN);
    for (key, seed_independent, digest) in std::mem::take(&mut ctx.pins) {
        let tag = seed_tag(ctx, seed_independent);
        let found = golden.get(&(key.clone(), tag.clone()));
        if found.is_none() && !seed_independent && ctx.seed != DEFAULT_SEED {
            continue;
        }
        let ok = found.is_some_and(|g| *g == format!("{digest:016x}"));
        if !ok {
            ctx.lines.push(format!(
                "golden: {key} (seed {tag}) digest {digest:016x} != pinned {}",
                found.map_or("<none>", String::as_str)
            ));
        }
        ctx.gate
            .check(&format!("{key} matches its golden digest"), ok);
    }
}
