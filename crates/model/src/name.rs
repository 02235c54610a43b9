//! Names — record labels and variable names — compared in place.
//!
//! Every row an operator touches has its names looked up: `x.b` is a
//! search of the environment for `x` and of the row for `b`, once per
//! tuple in every join key, nest-join function and selection. Names are
//! short (one or a few bytes), and `str`'s `==` and `cmp` hand even a
//! one-byte name to libc's `bcmp`/`memcmp`: a call that costs more than
//! the bytes it compares. A sampling profile of the `paper_nested`
//! workload put 7.5 % of its CPU in libc's string functions called from
//! the evaluator. On a shared 2-vCPU x86-64 host, the byte loops here
//! took one `eval` of `x.b` over a bare row from 40 to 35 ns (median of
//! 6 runs of `b17_rowpath`'s `lookup` group) and `paper_nested`'s
//! `round_norm_ms` down 6.7 % (median of 10 alternating pairs, 10 won).
//!
//! The functions have exactly `str`'s semantics — equality is equal
//! bytes, order is the lexicographic order of the UTF-8 bytes, which is
//! `str`'s `Ord` — so a name compared here and one compared with `str`'s
//! operators agree. Only the row path uses them (records, the evaluator's
//! environment, the storage codec); data strings ([`crate::Value::Str`])
//! and planning-time code keep `str`'s operators.

use std::cmp::Ordering;

/// `a == b` for two names, as a byte loop.
#[inline(always)]
pub fn same(a: &str, b: &str) -> bool {
    same_bytes(a.as_bytes(), b.as_bytes())
}

/// [`same`] over bytes: for a codec that holds a name's bytes before it
/// has checked them as UTF-8.
#[inline(always)]
pub fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && std::iter::zip(a, b).all(|(x, y)| x == y)
}

/// `a.cmp(b)` for two names, as a byte loop: the first differing byte
/// decides, else the shorter name is less.
#[inline(always)]
pub fn order(a: &str, b: &str) -> Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    match std::iter::zip(a, b).find(|(x, y)| x != y) {
        Some((x, y)) => x.cmp(y),
        None => a.len().cmp(&b.len()),
    }
}
