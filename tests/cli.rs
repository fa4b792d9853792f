//! Integration tests for the `xqsh` CLI binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn xqsh() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xqsh"))
}

fn run_stdin(args: &[&str], input: &str) -> (String, String, bool) {
    let mut child = xqsh()
        .args(args)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xqsh");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn runs_hello_world_from_stdin() {
    let (stdout, _stderr, ok) = run_stdin(&[], "{ return value \"Hello, World\"; }");
    assert!(ok);
    assert_eq!(stdout.trim(), "Hello, World");
}

#[test]
fn trace_goes_to_stderr() {
    let (stdout, stderr, ok) = run_stdin(
        &["--trace"],
        "{ declare $x := 3; while ($x lt 20) { fn:trace($x); set $x := $x * 2; } \
           return value $x; }",
    );
    assert!(ok);
    assert_eq!(stdout.trim(), "24");
    assert!(stderr.contains("trace: 3"));
    assert!(stderr.contains("trace: 12"));
}

#[test]
fn xqueryp_mode_concatenates_loop_values() {
    let src = "{ declare $x := 0; while ($x lt 3) { set $x := $x + 1; fn:string($x); } }";
    let (xqse_out, _, ok) = run_stdin(&[], src);
    assert!(ok);
    assert_eq!(xqse_out.trim(), "");
    let (xp_out, _, ok) = run_stdin(&["--xqueryp"], src);
    assert!(ok);
    assert_eq!(xp_out.trim(), "1 2 3");
}

#[test]
fn errors_exit_nonzero_with_message() {
    let (_, stderr, ok) = run_stdin(&[], "{ return value 1 div 0; }");
    assert!(!ok);
    assert!(stderr.contains("FOAR0001"), "{stderr}");
    // Parse errors too.
    let (_, stderr, ok) = run_stdin(&[], "{ set x := 1; }");
    assert!(!ok);
    assert!(stderr.contains("XPST0003") || stderr.contains("parse"), "{stderr}");
}

#[test]
fn doc_registration_resolves_fn_doc() {
    let dir = std::env::temp_dir().join("xqsh_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let xml_path = dir.join("data.xml");
    std::fs::write(&xml_path, "<r><v>4</v><v>5</v></r>").unwrap();
    let (stdout, stderr, ok) = run_stdin(
        &["--doc", &format!("mem:data={}", xml_path.display())],
        "fn:sum(for $v in fn:doc('mem:data')/r/v return fn:number($v))",
    );
    assert!(ok, "{stderr}");
    assert_eq!(stdout.trim(), "9");
}

#[test]
fn runs_the_shipped_example_scripts() {
    let root = env!("CARGO_MANIFEST_DIR"); // repo root (the package that owns the bin)
    let scripts = std::path::Path::new(root).join("examples/scripts");
    let run_file = |name: &str| {
        let out = xqsh()
            .arg(scripts.join(name))
            .output()
            .expect("run script");
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    assert_eq!(run_file("hello.xqse"), "Hello, World");
    assert_eq!(run_file("doubling.xqse"), "3 6 12 24 48 96");
    assert_eq!(run_file("collatz.xqse"), "111"); // n=27 takes 111 steps
}

#[test]
fn usage_on_bad_args() {
    let out = xqsh().output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

fn run_stdin_env(args: &[&str], envs: &[(&str, &str)], input: &str) -> (String, String, bool) {
    let mut cmd = xqsh();
    cmd.args(args).arg("-");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xqsh");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

/// The default run, `--features -lazy` and `XQSE_FEATURES=-lazy`
/// produce byte-identical stdout; the explain block says which
/// features ran and the streaming counters reflect them.
#[test]
fn lazy_kill_switches_agree_byte_for_byte() {
    let src = "fn:subsequence(for $i in 1 to 50 where $i mod 3 ne 0 \
               return <r>{$i}</r>, 2, 3)";
    let (lazy_out, lazy_err, ok) = run_stdin_env(&["--explain"], &[], src);
    assert!(ok, "{lazy_err}");
    let (flag_out, flag_err, ok) =
        run_stdin_env(&["--explain", "--features", "-lazy"], &[], src);
    assert!(ok, "{flag_err}");
    let (env_out, env_err, ok) =
        run_stdin_env(&["--explain"], &[("XQSE_FEATURES", "-lazy")], src);
    assert!(ok, "{env_err}");
    assert_eq!(lazy_out, flag_out);
    assert_eq!(lazy_out, env_out);
    assert!(lazy_err.contains("explain: features = opt,join,batch,graft,lazy\n"), "{lazy_err}");
    assert!(flag_err.contains("explain: features = opt,join,batch,graft\n"), "{flag_err}");
    assert!(env_err.contains("explain: features = opt,join,batch,graft\n"), "{env_err}");
    // The stream engaged in the default run and stopped early...
    assert!(lazy_err.contains("early-exits=1"), "{lazy_err}");
    // ...and never engaged under either spelling of `-lazy`.
    assert!(flag_err.contains("tuples-pulled=0"), "{flag_err}");
    assert!(env_err.contains("tuples-pulled=0"), "{env_err}");
}

/// Every explain line prints on every run — zero-valued counters and
/// disabled features included — so bench scripts can parse the block
/// without guessing which features were engaged (satellite: uniform
/// explain output).
#[test]
fn explain_block_prints_all_lines_unconditionally() {
    let groups = [
        "explain: features =",
        "explain: join cache",
        "explain: mat cache",
        "explain: pushdown",
        "explain: plan cache",
        "explain: web service",
        "explain: xa recovery",
        "explain: budgets",
        "explain: xdm",
        "explain: streaming",
    ];
    // A trivial query engages almost nothing; every line must still be
    // there, in both lazy and eager mode.
    for args in [&["--explain"][..], &["--explain", "--features", "-lazy"][..]] {
        let (_, stderr, ok) = run_stdin_env(args, &[], "1 + 1");
        assert!(ok, "{stderr}");
        for g in groups {
            assert!(stderr.contains(g), "missing {g:?} in:\n{stderr}");
        }
    }
}

/// The `pushdown` explain line counts view unfolds: a `for` over a
/// user view whose `where` reads one constructed child unfolds with
/// the optimizer on, and `--features -opt` gives the same bytes
/// without it.
#[test]
fn explain_counts_view_unfolds() {
    let src = "declare function local:v() as element(R)* { \
                 for $i in 1 to 5 return <R><K>{$i}</K><V>{$i * $i}</V></R> \
               }; \
               for $r in local:v() where $r/K eq 4 return $r";
    let (on_out, on_err, ok) = run_stdin_env(&["--explain"], &[], src);
    assert!(ok, "{on_err}");
    let (off_out, off_err, ok) =
        run_stdin_env(&["--explain", "--features", "-opt"], &[], src);
    assert!(ok, "{off_err}");
    assert_eq!(on_out.trim(), "<R><K>4</K><V>16</V></R>");
    assert_eq!(on_out, off_out);
    assert!(on_err.contains("indexed-selects=0 view-unfolds=1"), "{on_err}");
    assert!(off_err.contains("indexed-selects=0 view-unfolds=0"), "{off_err}");
}

/// Run xqsh with `args` and extra environment, without stdin: its
/// stdout, stderr and exit code.
fn run_args_env(args: &[&str], envs: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let out = xqsh().args(args).envs(envs.iter().copied()).output().expect("run xqsh");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.code(),
    )
}

/// The `--serve-bench` workers run with the `--features` set: `-batch`
/// flies no batches, the explain block names the set the workers
/// used, and the replies are byte-identical to the default run's.
#[test]
fn serve_bench_applies_features() {
    let bench = ["--serve-bench", "2", "--requests", "8", "--explain"];
    let digest = |stdout: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with("serve-bench: replies-digest="))
            .map(str::to_string)
            .expect("digest line")
    };
    let (all_out, all_err, code) = run_args_env(&bench, &[]);
    assert_eq!(code, Some(0), "{all_err}");
    assert!(all_err.contains("explain: features = opt,join,batch,graft,lazy\n"), "{all_err}");
    assert!(all_err.contains(" batches=8\n"), "{all_err}");
    let (out, err, code) = run_args_env(&[&bench[..], &["--features", "-batch"]].concat(), &[]);
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("explain: features = opt,join,graft,lazy\n"), "{err}");
    assert!(err.contains(" batches=0\n"), "{err}");
    assert_eq!(digest(&out), digest(&all_out));
}

/// A misspelt feature, on the command line or in `XQSE_FEATURES`, is a
/// usage error naming the bad token rather than a silent full set.
#[test]
fn invalid_feature_spec_is_a_usage_error() {
    let (_, err, code) = run_args_env(&["--features", "-lazzy", "-"], &[]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("lazzy"), "{err}");
    let (_, err, code) = run_args_env(&["-"], &[("XQSE_FEATURES", "-lazzy")]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("lazzy"), "{err}");
}
