//! Smoke tests of the `vhdlc` command-line interface: on-disk work
//! library, elaboration, simulation, VCD and C outputs, error exit codes.

use std::path::PathBuf;
use std::process::Command;

fn vhdlc() -> Command {
    // Cargo builds this package's binaries before its integration tests
    // and names their paths at compile time.
    Command::new(env!("CARGO_BIN_EXE_vhdlc"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vhdlc-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn compile_elaborate_simulate_roundtrip() {
    let dir = tmpdir("ok");
    let src = dir.join("blinker.vhd");
    std::fs::write(
        &src,
        "entity blinker is end;
         architecture a of blinker is
           signal led : bit := '0';
         begin
           process
           begin
             led <= not led after 5 ns;
             wait on led;
           end process;
           assert led = '0' or led = '1' report \"impossible\" severity note;
         end a;",
    )
    .unwrap();
    let work = dir.join("work");
    let vcd = dir.join("waves.vcd");
    let c = dir.join("out.c");
    let out = vhdlc()
        .args([
            "--work",
            work.to_str().unwrap(),
            "--elab",
            "blinker",
            "--run",
            "50",
            "--vcd",
            vcd.to_str().unwrap(),
            "--emit-c",
            c.to_str().unwrap(),
            "--stats",
            src.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // Artifacts exist and look right.
    let vcd_text = std::fs::read_to_string(&vcd).unwrap();
    assert!(vcd_text.contains("$var"), "{vcd_text}");
    assert!(vcd_text.matches('\n').count() > 10, "waveform has edges");
    let c_text = std::fs::read_to_string(&c).unwrap();
    assert!(c_text.contains("vhdl_kernel.h"));
    // The work library persists: a second invocation elaborates without
    // recompiling sources.
    let out2 = vhdlc()
        .args([
            "--work",
            work.to_str().unwrap(),
            "--elab",
            "blinker",
            "--run",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        out2.status.success(),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("phases:"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn config_elaboration_times_its_phases() {
    let dir = tmpdir("config");
    let src = dir.join("cfg.vhd");
    std::fs::write(
        &src,
        "entity buf is
           port (i : in bit; o : out bit);
         end buf;
         architecture direct of buf is
         begin
           o <= i;
         end direct;
         entity top is end;
         architecture s of top is
           component buf
             port (i : in bit; o : out bit);
           end component;
           signal x, y : bit := '0';
         begin
           u1 : buf port map (i => x, o => y);
           x <= '1' after 1 ns;
         end s;
         configuration use_direct of top is
           for s
             for u1 : buf use entity work.buf(direct); end for;
           end for;
         end use_direct;",
    )
    .unwrap();
    let out = vhdlc()
        .args(["--config", "use_direct", "--stats", src.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let phases = stderr
        .lines()
        .find_map(|l| l.strip_prefix("phases: "))
        .unwrap_or_else(|| panic!("no phases line: {stderr}"));
    for phase in ["codegen", "backend"] {
        let time = phases
            .split(" | ")
            .find_map(|p| p.strip_prefix(phase)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {phase} in {phases}"));
        assert_ne!(time, "0ns", "{phase} untimed: {phases}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn semantic_errors_fail_with_positions() {
    let dir = tmpdir("err");
    let src = dir.join("bad.vhd");
    std::fs::write(
        &src,
        "entity e is end;
         architecture a of e is
           signal s : bit;
         begin
           s <= undefined_name;
         end a;",
    )
    .unwrap();
    let out = vhdlc().args([src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("undefined_name"), "{stderr}");
    assert!(stderr.contains("5:"), "position in: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn parse_errors_fail() {
    let dir = tmpdir("parse");
    let src = dir.join("bad.vhd");
    std::fs::write(&src, "entity entity entity").unwrap();
    let out = vhdlc().args([src.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_option_is_usage_error() {
    let out = vhdlc().args(["--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn batch_mode_compiles_out_of_order_files_in_parallel() {
    let dir = tmpdir("batch");
    // Listed out of dependency order on purpose: the batch stages them.
    let files = [
        (
            "rtl.vhd",
            "use work.consts.all;
             architecture rtl of top is
               signal s : integer := width;
             begin
               s <= width + 1;
             end rtl;",
        ),
        ("top.vhd", "entity top is end;"),
        (
            "consts.vhd",
            "package consts is
               constant width : integer := 4;
             end consts;",
        ),
    ];
    let mut paths = Vec::new();
    for (name, text) in files {
        let p = dir.join(name);
        std::fs::write(&p, text).unwrap();
        paths.push(p);
    }
    let work = dir.join("work");
    let mut args = vec![
        "--work".to_string(),
        work.to_str().unwrap().to_string(),
        "--jobs".to_string(),
        "4".to_string(),
        "--stats".to_string(),
    ];
    args.extend(paths.iter().map(|p| p.to_str().unwrap().to_string()));
    let out = vhdlc().args(&args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("3 units"), "{stderr}");
    assert!(stderr.contains("cache hit 0 miss 0 cold 3"), "{stderr}");

    // Second run with --incremental skips every analysis.
    let mut args2 = args.clone();
    args2.insert(4, "--incremental".to_string());
    let out = vhdlc().args(&args2).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("cache hit 3 miss 0 cold 0"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A plain compile into a work library stamps its units, so a later
/// `--incremental` run over the same file skips every analysis.
#[test]
fn plain_compile_stamps_for_a_later_incremental_run() {
    let dir = tmpdir("stamps");
    let work = dir.join("work");
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/full_adder.vhd");
    let (work, src) = (work.to_str().unwrap(), src.to_str().unwrap());
    let cold = vhdlc().args(["--work", work, src]).output().unwrap();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let warm = vhdlc()
        .args(["--work", work, "--incremental", "--stats", src])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(warm.status.success(), "{stderr}");
    assert!(stderr.contains("cache hit 10 miss 0 cold 0"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--trace-phases` nests attribute evaluation (the parser's tree is
/// decorated as it is, with no tree build of its own) under analysis,
/// with the expression cascade inside evaluation.
#[test]
fn trace_phases_nest_analysis_spans() {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/full_adder.vhd");
    let out = vhdlc()
        .args(["--trace-phases", src.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    // Phase rows: two spaces of indent per nesting level, then the name
    // and the call count.
    let rows: Vec<(usize, &str, u64)> = stderr
        .lines()
        .take_while(|l| !l.is_empty())
        .skip(2)
        .map(|l| {
            let mut f = l.split_whitespace();
            let name = f.next().unwrap();
            let calls = f.next().unwrap().parse().unwrap();
            ((l.len() - l.trim_start().len()) / 2, name, calls)
        })
        .collect();
    // The row of `name` and the name of its parent row.
    let find = |name: &str| {
        let i = rows
            .iter()
            .position(|r| r.1 == name)
            .unwrap_or_else(|| panic!("no `{name}` row in:\n{stderr}"));
        let parent = rows[..i].iter().rev().find(|r| r.0 + 1 == rows[i].0);
        (rows[i], parent.map(|r| r.1))
    };
    let (principal, _) = find("principal-ag");
    let (eval, eval_parent) = find("ag-eval");
    let (_, cascade_parent) = find("expr-eval-cascade");
    assert_eq!(eval_parent, Some("principal-ag"), "{stderr}");
    assert_eq!(cascade_parent, Some("ag-eval"), "{stderr}");
    // One evaluation per analyzed unit.
    assert_eq!(eval.2, principal.2);
}

/// `--trace-phases` counts the nodes of every expression tree the
/// cascade decorates. Copy-only chain productions get no node, so a
/// generated heavy design averages at most 8 nodes per expression (16
/// when every production had one).
#[test]
fn trace_phases_count_expression_tree_nodes() {
    let dir = tmpdir("nodes");
    let design = vhdl_conform::gen_design(
        &mut ag_harness::Source::from_seed(1),
        vhdl_conform::Profile::Heavy,
    );
    let src = dir.join("heavy.vhd");
    std::fs::write(&src, design.source).unwrap();
    let out = vhdlc()
        .args(["--trace-phases", src.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let counter = |name: &str| -> u64 {
        let row = stderr
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no `{name}` counter in:\n{stderr}"));
        row.split_whitespace().nth(1).unwrap().parse().unwrap()
    };
    let (evals, nodes) = (counter("expr-evals"), counter("expr-tree-nodes"));
    assert!(evals > 100, "{stderr}");
    assert!(nodes <= 8 * evals, "{nodes} nodes over {evals} expressions");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A process of `n` statements `v := v + 1;`.
fn long_process(n: usize) -> String {
    format!(
        "entity deep is end;\narchitecture a of deep is\nbegin\n  process\n    \
         variable v : integer := 0;\n  begin\n{}    wait;\n  end process;\nend;\n",
        "    v := v + 1;\n".repeat(n)
    )
}

/// An assignment of `1` inside `n` pairs of parentheses.
fn nested_parens(n: usize) -> String {
    format!(
        "entity paren is end;\narchitecture a of paren is\nbegin\n  process\n    \
         variable v : integer := 0;\n  begin\n    v := {}1{};\n    wait;\n  end process;\nend;\n",
        "(".repeat(n),
        ")".repeat(n)
    )
}

/// Attribute demands recurse as deep as the tree. A long statement list
/// or a deep expression ends in a diagnostic and exit status 1, never in
/// a stack overflow, and `--jobs` does not change the outcome: the main
/// path and the workers analyze on the same stack under the same bound.
#[test]
fn deep_units_exit_by_status_at_every_jobs() {
    let dir = tmpdir("deep");
    for (name, src, at) in [
        ("stmts.vhd", long_process(20_000), ""),
        // A pair of parentheses costs the principal AG's demand no level,
        // since its rule reads the expression's tokens from the tree, and
        // the cascade's two, so these pass `MAX_DEPTH` in the cascade,
        // which reports at the expression's first token.
        ("parens.vhd", nested_parens(24_000), ":7:10: "),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        let outs = ["1", "2"].map(|jobs| {
            vhdlc()
                .args(["--jobs", jobs, path.to_str().unwrap()])
                .output()
                .unwrap()
        });
        for out in &outs {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
            let want = format!("{at}error: nesting too deep");
            assert!(stderr.contains(&want), "{name}: {stderr}");
        }
        assert_eq!(outs[0].stdout, outs[1].stdout, "{name}");
        assert_eq!(outs[0].stderr, outs[1].stderr, "{name}");
    }
}

/// A damaged disk library is a diagnostic, not a crash: with the `obj`
/// of one `e.ref` deleted from a stored architecture, or linked to the
/// signal's type instead, elaborating a design that instantiates it
/// exits 1 and names the unit, the node kind and the field.
#[test]
fn damaged_library_unit_is_a_diagnostic() {
    let dir = tmpdir("damaged");
    let work = dir.join("work");
    let src =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/full_adder.vhd");
    let out = vhdlc()
        .args(["--work", work.to_str().unwrap(), src.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let unit = work.join("arch.and2.behav.vif");
    let text = std::fs::read_to_string(&unit).unwrap();
    let at = text.find("(e.ref (ty ").expect("an e.ref node");
    let ty = at + "(e.ref (ty ".len();
    let ty = &text[ty..ty + text[ty..].find(')').unwrap()];
    let obj = at + text[at..].find(" (obj #").expect("its obj field");
    let end = obj + text[obj..].find(')').unwrap() + 1;
    for damage in ["", &format!(" (obj {ty})")] {
        std::fs::write(&unit, format!("{}{damage}{}", &text[..obj], &text[end..])).unwrap();
        let out = vhdlc()
            .args(["--work", work.to_str().unwrap(), "--elab", "tb"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("work.arch.and2.behav"), "{stderr}");
        assert!(stderr.contains("`e.ref` node, field `obj`"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Analysis against a library unit that exists but breaks the schema
/// reports the damaged unit, not a missing one; an architecture whose
/// entity cannot be read or is absent reports only the entity's fault.
#[test]
fn damaged_dependency_is_named_in_analysis() {
    let dir = tmpdir("damaged-dep");
    let work = dir.join("work");
    let src =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/full_adder.vhd");
    let out = vhdlc()
        .args(["--work", work.to_str().unwrap(), src.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let unit = work.join("entity.and2.vif");
    let text = std::fs::read_to_string(&unit).unwrap();
    let port = text.find("(obj \"y\"").expect("port y");
    let uid = port + text[port..].find(" (uid ").expect("its uid field");
    let end = uid + text[uid..].find(')').unwrap() + 1;
    std::fs::write(&unit, format!("{}{}", &text[..uid], &text[end..])).unwrap();
    let alt = dir.join("alt.vhd");
    std::fs::write(
        &alt,
        "architecture alt of and2 is\nbegin\n  y <= b and a;\nend alt;\n",
    )
    .unwrap();
    let out = vhdlc()
        .args(["--work", work.to_str().unwrap(), alt.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("work.entity.and2"), "{stderr}");
    assert!(stderr.contains("field `uid`"), "{stderr}");
    // The entity exists, so the architecture does not call it missing,
    // and without its ports the body reports no follow-on error.
    assert!(!stderr.contains("not found in library work"), "{stderr}");
    assert!(!stderr.contains("is not declared"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // With no entity at all, the architecture reports only that.
    let empty = dir.join("empty");
    let out = vhdlc()
        .args(["--work", empty.to_str().unwrap(), alt.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("entity `and2` not found in library work"),
        "{stderr}"
    );
    assert!(!stderr.contains("is not declared"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A package whose VIF breaks the schema is an error only of the units
/// that name it: the implicit `use work.all` scan leaves it out, so an
/// unrelated unit still compiles and the package's own recompile
/// replaces it, while a unit that does `use work.q.all` names it.
#[test]
fn damaged_package_fails_only_its_users() {
    let dir = tmpdir("damaged-pkg");
    let work = dir.join("work");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let q = write(
        "q.vhd",
        "package q is\n  constant k : integer := 3;\nend q;\n",
    );
    let other = write(
        "other.vhd",
        "entity other is end;\narchitecture a of other is\n  signal t : bit;\nbegin\n  t <= '1';\nend a;\n",
    );
    let user = write(
        "user.vhd",
        "use work.q.all;\nentity user is end;\narchitecture a of user is\n  signal t : integer := k;\nbegin\nend a;\n",
    );
    let compile = |src: &std::path::Path| {
        vhdlc()
            .args(["--work", work.to_str().unwrap(), src.to_str().unwrap()])
            .output()
            .unwrap()
    };
    let damage = || {
        let unit = work.join("pkg.q.vif");
        let text = std::fs::read_to_string(&unit).unwrap();
        let k = text.find("(obj \"k\"").expect("constant k");
        let uid = k + text[k..].find(" (uid ").expect("its uid field");
        let end = uid + text[uid..].find(')').unwrap() + 1;
        std::fs::write(&unit, format!("{}{}", &text[..uid], &text[end..])).unwrap();
    };
    let out = compile(&q);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    damage();
    let out = compile(&other);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = compile(&user);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("work.pkg.q"), "{stderr}");
    assert!(stderr.contains("field `uid`"), "{stderr}");
    let out = compile(&q);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = compile(&user);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
