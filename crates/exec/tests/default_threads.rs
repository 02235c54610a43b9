//! `default_threads()` remembers the hardware, never the environment.
//!
//! This file holds exactly one test: it changes `TMQL_THREADS`, which is
//! process-global, and a second test running beside it would see it move.

use tmql_exec::{default_threads, ExecConfig};

#[test]
fn a_changed_tmql_threads_is_honoured_after_the_first_call() {
    std::env::remove_var("TMQL_THREADS");
    let hardware = default_threads();
    assert!(hardware >= 1);
    // The first call cached the hardware count; the variable still wins.
    std::env::set_var("TMQL_THREADS", "7");
    assert_eq!(default_threads(), 7);
    assert_eq!(ExecConfig::default().threads, 7);
    std::env::set_var("TMQL_THREADS", "3");
    assert_eq!(default_threads(), 3);
    // `auto`, `0`, blank and junk all mean the (remembered) hardware.
    for v in ["auto", "0", " ", "many"] {
        std::env::set_var("TMQL_THREADS", v);
        assert_eq!(default_threads(), hardware, "TMQL_THREADS={v:?}");
    }
    std::env::remove_var("TMQL_THREADS");
    assert_eq!(default_threads(), hardware);
}
