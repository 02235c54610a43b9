//! A sampling CPU profile of the benchmark's statements: where the time
//! of a workload's statements goes, function by function.
//!
//! ```sh
//! RUSTFLAGS="-C force-frame-pointers=yes" \
//!   cargo run --release --example profile -- [--seconds 10] [workload | class …]
//! ```
//!
//! The workloads and their statements are the benchmark's own: this file
//! includes `tmqlbench/src/workloads.rs` and builds each workload with its
//! `build` at the pinned seed and full size, disk files in a temporary
//! directory removed afterwards. An argument names a workload
//! (`paper_nested`, `plan_heavy`, `scan_mem`, `spill_join`, `disk_cold`,
//! `disk_rw`) or a statement class (`semijoin`, `nestjoin_select`,
//! `table2`, `grace_semijoin`, `cold_probe`, `commit`, …; classes are
//! unique across workloads); with none it profiles `paper_nested`. A query
//! runs through `query_with` under the statement's own options, a write as
//! the benchmark runs it (`catalog_mut().replace`, or `begin`, replaces,
//! `commit`). Each chosen statement runs in turn, round after round, for
//! the given seconds.
//!
//! `setitimer(ITIMER_PROF)` delivers `SIGPROF` every millisecond of CPU
//! time. The handler, installed with `sigaction` and `SA_SIGINFO`, reads
//! RIP and RBP out of the interrupted context (x86-64 Linux `gregs`) and
//! walks the frame-pointer chain while it stays inside the main thread's
//! stack (its `[stack]` mapping in `/proc/self/maps`), into a buffer
//! allocated before the timer starts. Afterwards every address is
//! symbolised by `llvm-symbolizer --inlines` and attributed to its
//! outermost (physical) function; the tables print samples by **self**
//! (the sampled instruction's function) and **inclusive** (every function
//! on the stack, once per sample). Without `-C force-frame-pointers=yes`
//! the walk stops at the first frame that keeps none, and libc's frames
//! keep none anyway: time in libc shows as `[outside the binary]`, and a
//! libc function's caller is lost. When hardly any sample's walk (under
//! one in ten) climbed past its first frame record — a build without the
//! flag — the program says so on stderr: its inclusive table is then
//! about the self table.
//!
//! This is the one place in the workspace with `unsafe` code (the FFI and
//! the stack reads); every engine crate stays without. On other targets
//! the program says so and exits.

#[allow(dead_code)]
#[path = "../tmqlbench/src/workloads.rs"]
mod workloads;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    sampler::main();
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("profile: the sampler reads x86-64 Linux signal contexts only");
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::collections::HashMap;
    use std::ffi::c_void;
    use std::io::Write;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
    use std::time::Instant;

    use crate::workloads::{self, Instance, Op, PINNED_SEED};

    /// The benchmark's workloads, in its manifest's order.
    const WORKLOADS: [&str; 6] = [
        "paper_nested",
        "plan_heavy",
        "scan_mem",
        "spill_join",
        "disk_cold",
        "disk_rw",
    ];

    /// Frames kept per sample, and samples kept per run.
    const DEPTH: usize = 48;
    const SAMPLES: usize = 30_000;

    /// Sample `i` is `FRAMES[i * DEPTH ..][.. LENS[i]]`, innermost first.
    static FRAMES: [AtomicU64; SAMPLES * DEPTH] = [const { AtomicU64::new(0) }; SAMPLES * DEPTH];
    static LENS: [AtomicUsize; SAMPLES] = [const { AtomicUsize::new(0) }; SAMPLES];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    static STACK_LO: AtomicU64 = AtomicU64::new(0);
    static STACK_HI: AtomicU64 = AtomicU64::new(0);

    // glibc's x86-64 Linux ABI.
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    #[repr(C)]
    struct SigAction {
        sa_sigaction: usize,
        sa_mask: [u64; 16],
        sa_flags: i32,
        sa_restorer: usize,
    }

    const ITIMER_PROF: i32 = 2;
    const SIGPROF: i32 = 27;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// `ucontext_t`: `uc_flags`, `uc_link` and the 24-byte `uc_stack`
    /// come before `uc_mcontext.gregs`.
    const GREGS: usize = 40;
    const REG_RBP: usize = 10;
    const REG_RIP: usize = 16;

    extern "C" {
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    }

    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, context: *mut c_void) {
        let slot = TAKEN.fetch_add(1, Relaxed);
        if slot >= SAMPLES {
            return;
        }
        let gregs = (context as *const u8).wrapping_add(GREGS) as *const u64;
        // SAFETY: the kernel hands a SA_SIGINFO handler a valid
        // `ucontext_t`, whose `gregs` start at `GREGS`.
        let (rip, mut rbp) = unsafe { (*gregs.add(REG_RIP), *gregs.add(REG_RBP)) };
        let (lo, hi) = (STACK_LO.load(Relaxed), STACK_HI.load(Relaxed));
        let frames = &FRAMES[slot * DEPTH..(slot + 1) * DEPTH];
        frames[0].store(rip, Relaxed);
        let mut len = 1;
        // Each frame is [saved RBP, return address]; the chain must climb
        // the stack, or it is no chain.
        while len < DEPTH && rbp >= lo && rbp % 8 == 0 && rbp + 16 <= hi {
            // SAFETY: `rbp .. rbp + 16` lies inside the mapped stack of
            // the thread the signal interrupted (the only one sampled).
            let (next, ret) = unsafe {
                let p = rbp as *const u64;
                (p.read_volatile(), p.add(1).read_volatile())
            };
            if ret == 0 {
                break;
            }
            frames[len].store(ret - 1, Relaxed);
            len += 1;
            if next <= rbp {
                break;
            }
            rbp = next;
        }
        LENS[slot].store(len, Relaxed);
    }

    /// Every mapping in `/proc/self/maps`: start, end, file offset, path.
    fn mappings() -> Vec<(u64, u64, u64, String)> {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        (maps.lines())
            .filter_map(|line| {
                let mut parts = line.split_whitespace();
                let (a, b) = parts.next()?.split_once('-')?;
                let offset = hex(parts.nth(1)?)?;
                let path = parts.nth(2).unwrap_or("").to_string();
                Some((hex(a)?, hex(b)?, offset, path))
            })
            .collect()
    }

    fn start(interval_us: i64) {
        let (lo, hi, ..) = (mappings().into_iter())
            .find(|m| m.3 == "[stack]")
            .expect("a [stack] mapping");
        STACK_LO.store(lo, Relaxed);
        STACK_HI.store(hi, Relaxed);
        let action = SigAction {
            sa_sigaction: on_sigprof as extern "C" fn(i32, *mut c_void, *mut c_void) as usize,
            sa_mask: [0; 16],
            sa_flags: SA_SIGINFO | SA_RESTART,
            sa_restorer: 0,
        };
        let tick = Timeval {
            tv_sec: 0,
            tv_usec: interval_us,
        };
        let timer = Itimerval {
            it_interval: Timeval { ..tick },
            it_value: tick,
        };
        // SAFETY: both structs have glibc's layout; the handler only
        // touches statics and the interrupted thread's stack.
        unsafe {
            assert_eq!(sigaction(SIGPROF, &action, std::ptr::null_mut()), 0);
            assert_eq!(setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()), 0);
        }
    }

    fn stop() {
        let zero = || Timeval {
            tv_sec: 0,
            tv_usec: 0,
        };
        let off = Itimerval {
            it_interval: zero(),
            it_value: zero(),
        };
        // SAFETY: a zero timer disarms ITIMER_PROF.
        unsafe { assert_eq!(setitimer(ITIMER_PROF, &off, std::ptr::null_mut()), 0) };
    }

    /// The outermost function of each address in the binary (as a file
    /// offset from `base`), by `llvm-symbolizer --inlines`.
    fn symbolise(addrs: &[u64], base: u64) -> HashMap<u64, String> {
        let exe = std::env::current_exe().expect("the running binary");
        let mut child = Command::new("llvm-symbolizer")
            .arg("--inlines")
            .arg("--functions=linkage")
            .arg("--demangle")
            .arg(format!("--obj={}", exe.display()))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("llvm-symbolizer on PATH");
        let mut input = String::new();
        for a in addrs {
            input.push_str(&format!("0x{:x}\n", a - base));
        }
        let mut stdin = child.stdin.take().expect("piped");
        let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
        let out = child.wait_with_output().expect("symbolizer ran");
        writer.join().expect("writer").expect("symbolizer input");
        let text = String::from_utf8_lossy(&out.stdout);
        // One block per address: (function, location) line pairs, the
        // innermost inlined frame first, the physical function last.
        let blocks = text.split("\n\n").filter(|b| !b.trim().is_empty());
        let names = blocks.map(|block| {
            let lines: Vec<&str> = block.lines().collect();
            let outer = lines.len().saturating_sub(2);
            lines.get(outer).map_or("??", |l| l.trim()).to_string()
        });
        addrs.iter().copied().zip(names).collect()
    }

    /// `name` with Rust's legacy symbol escapes spelled out and without
    /// its hash or LLVM suffix, for a readable table.
    fn readable(name: &str) -> String {
        let mut out = name
            .strip_prefix('_')
            .filter(|n| n.starts_with('$'))
            .unwrap_or(name);
        if let Some(cut) = out.find(" (.llvm.") {
            out = &out[..cut];
        }
        let hash = out.rfind("::h").filter(|i| out.len() - i == 19);
        let mut out = out[..hash.unwrap_or(out.len())].to_string();
        let escapes = [
            ("$LT$", "<"),
            ("$GT$", ">"),
            ("$u20$", " "),
            ("$C$", ","),
            ("$RF$", "&"),
            ("$BP$", "*"),
            ("$u7b$", "{"),
            ("$u7d$", "}"),
            ("$u5b$", "["),
            ("$u5d$", "]"),
            ("$u27$", "'"),
            ("..", "::"),
        ];
        for (from, to) in escapes {
            out = out.replace(from, to);
        }
        out
    }

    fn table(title: &str, counts: HashMap<String, usize>, total: usize) {
        let mut rows: Vec<(String, usize)> = counts.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        println!("\n{title} ({total} samples)");
        for (name, n) in rows.iter().take(40) {
            println!("{:6.1}%  {n:6}  {name}", 100.0 * *n as f64 / total as f64);
        }
    }

    /// The directory the disk workloads' files go in, removed when dropped
    /// (declared before the databases, so dropped after them).
    struct TempDir(std::path::PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Run statement `i` of `inst` as the benchmark runs it.
    fn run(inst: &mut Instance, i: usize) {
        let Instance {
            dbs, stmts, tables, ..
        } = inst;
        let s = &stmts[i];
        let db = &mut dbs[s.db];
        match &s.op {
            Op::Query(src) => {
                db.query_with(src, s.opts).expect("statement runs");
            }
            Op::Replace(t) => {
                let table = tables[*t].clone();
                db.catalog_mut().replace(table).expect("replace commits");
            }
            Op::Txn(ts) => {
                db.begin().expect("transaction begins");
                for t in ts {
                    let table = tables[*t].clone();
                    db.catalog_mut().replace(table).expect("replace runs");
                }
                db.commit().expect("transaction commits");
            }
        }
    }

    pub fn main() {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let mut seconds = 5.0;
        if let Some(i) = args.iter().position(|a| a == "--seconds") {
            seconds = args
                .get(i + 1)
                .and_then(|s| s.parse().ok())
                .expect("--seconds N");
            args.drain(i..i + 2);
        }
        if args.is_empty() {
            args.push("paper_nested".to_string());
        }
        let dir =
            TempDir(std::env::temp_dir().join(format!("tmql-profile-{}", std::process::id())));
        std::fs::create_dir_all(&dir.0).expect("a temporary directory");
        // Every workload is built, so a class can be found in whichever
        // one holds it; those with no chosen statement are dropped.
        let mut chosen: Vec<(Instance, Vec<usize>)> = Vec::new();
        for name in WORKLOADS {
            let inst = workloads::build(name, PINNED_SEED, 1, &dir.0).expect("workload builds");
            let picked: Vec<usize> = (0..inst.stmts.len())
                .filter(|&i| args.iter().any(|a| a == name || a == inst.stmts[i].class))
                .collect();
            if !picked.is_empty() {
                chosen.push((inst, picked));
            }
        }
        let mut which: Vec<&'static str> = (chosen.iter())
            .flat_map(|(inst, picked)| picked.iter().map(|&i| inst.stmts[i].class))
            .collect();
        which.dedup();
        for a in &args {
            let known = WORKLOADS.contains(&a.as_str()) || which.contains(&a.as_str());
            assert!(known, "no workload or statement class named `{a}`");
        }

        start(1000);
        let (clock, mut rounds) = (Instant::now(), 0);
        while clock.elapsed().as_secs_f64() < seconds && TAKEN.load(Relaxed) < SAMPLES {
            for (inst, picked) in &mut chosen {
                for &i in picked.iter() {
                    run(inst, i);
                }
            }
            rounds += 1;
        }
        stop();
        drop((chosen, dir));

        let taken = TAKEN.load(Relaxed).min(SAMPLES);
        let samples: Vec<&[AtomicU64]> = (0..taken)
            .map(|i| &FRAMES[i * DEPTH..i * DEPTH + LENS[i].load(Relaxed)])
            .collect();
        // A walk reads a frame record out of whatever RBP holds, frame
        // pointers or not: without them, 46 % of a `disk_cold` run's
        // samples read one and a stray few climb on. With them, over 90 %
        // climb past the first record to their callers.
        let climbed = samples.iter().filter(|s| s.len() > 2).count();
        if climbed * 10 < taken {
            eprintln!(
                "profile: warning: {climbed} of {taken} samples walked past their first \
                 frame record, so the inclusive table is about the self table; build \
                 with RUSTFLAGS=\"-C force-frame-pointers=yes\""
            );
        }
        let exe = std::env::current_exe().expect("the running binary");
        let own_maps: Vec<_> = (mappings().into_iter())
            .filter(|m| m.3 == exe.to_string_lossy())
            .collect();
        let base = (own_maps.iter())
            .find(|m| m.2 == 0)
            .expect("the binary's first mapping")
            .0;
        let end = own_maps.iter().map(|m| m.1).max().unwrap_or(base);
        let inside = |a: u64| (base..end).contains(&a);
        let mut addrs: Vec<u64> = (samples.iter())
            .flat_map(|s| s.iter().map(|a| a.load(Relaxed)))
            .filter(|&a| inside(a))
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        let names = symbolise(&addrs, base);
        let name = |a: u64| match names.get(&a) {
            Some(n) => readable(n),
            None if inside(a) => "??".to_string(),
            None => "[outside the binary]".to_string(),
        };
        let (mut own, mut inclusive) = (HashMap::new(), HashMap::new());
        for s in &samples {
            let frames: Vec<String> = s.iter().map(|a| name(a.load(Relaxed))).collect();
            *own.entry(frames[0].clone()).or_insert(0) += 1;
            let mut seen: Vec<&String> = frames.iter().collect();
            seen.sort();
            seen.dedup();
            // Every sample's walk ends outside the binary (in the C
            // runtime's start-up): that counts as self time only.
            for f in seen.into_iter().filter(|f| !f.starts_with('[')) {
                *inclusive.entry(f.clone()).or_insert(0) += 1;
            }
        }
        println!(
            "{rounds} rounds of {which:?} in {:.1} s",
            clock.elapsed().as_secs_f64()
        );
        table("self", own, taken);
        table("inclusive", inclusive, taken);
    }
}
