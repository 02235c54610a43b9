//! `default_threads()` is 1 unless `TMQL_THREADS` asks for more.
//!
//! This file holds exactly one test: it changes `TMQL_THREADS`, which is
//! process-global, and a second test running beside it would see it move.

use tmql_exec::{default_threads, hardware_threads, ExecConfig};

#[test]
fn a_changed_tmql_threads_is_honoured_after_the_first_call() {
    std::env::remove_var("TMQL_THREADS");
    assert_eq!(default_threads(), 1, "unset means serial, not the hardware");
    assert_eq!(ExecConfig::default().threads, 1);
    let hardware = hardware_threads();
    assert!(hardware >= 1);
    // The variable is read on every call.
    std::env::set_var("TMQL_THREADS", "7");
    assert_eq!(default_threads(), 7);
    assert_eq!(ExecConfig::default().threads, 7);
    std::env::set_var("TMQL_THREADS", "3");
    assert_eq!(default_threads(), 3);
    // `auto` and `0` mean the (remembered) hardware...
    for v in ["auto", "AUTO", " auto ", "0"] {
        std::env::set_var("TMQL_THREADS", v);
        assert_eq!(default_threads(), hardware, "TMQL_THREADS={v:?}");
    }
    // ...blank and junk mean the default.
    for v in ["", " ", "many", "-2"] {
        std::env::set_var("TMQL_THREADS", v);
        assert_eq!(default_threads(), 1, "TMQL_THREADS={v:?}");
    }
    std::env::remove_var("TMQL_THREADS");
    assert_eq!(default_threads(), 1);
}
