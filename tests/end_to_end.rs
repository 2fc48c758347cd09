//! Full-pipeline integration tests: VHDL source → cascaded-AG analysis →
//! VIF library → elaboration → kernel simulation → observed waveforms.

use sim_kernel::{Time, Val};
use vhdl_driver::Compiler;

fn ns(n: u64) -> Time {
    Time::fs(n * 1_000_000)
}

#[test]
fn clock_generator_oscillates() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity osc is end;
             architecture a of osc is
               signal clk : bit := '0';
             begin
               process
               begin
                 clk <= not clk after 5 ns;
                 wait on clk;
               end process;
             end a;",
            "osc",
        )
        .unwrap();
    sim.run_until(ns(23)).unwrap();
    assert_eq!(sim.stats().events, 4, "edges at 5,10,15,20 ns");
    assert_eq!(sim.value_by_name("osc.clk"), Some(&Val::Int(0)));
}

#[test]
fn counter_counts() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity counter is end;
             architecture rtl of counter is
               signal clk : bit := '0';
               signal count : integer := 0;
             begin
               clkgen : process
               begin
                 clk <= not clk after 5 ns;
                 wait on clk;
               end process;
               tick : process (clk)
               begin
                 if clk = '1' then
                   count <= count + 1;
                 end if;
               end process;
             end rtl;",
            "counter",
        )
        .unwrap();
    sim.run_until(ns(52)).unwrap();
    // Rising edges at 5, 15, 25, 35, 45 ns → 5 increments.
    assert_eq!(sim.value_by_name("counter.count"), Some(&Val::Int(5)));
}

#[test]
fn variables_loops_and_functions() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity calc is end;
             architecture a of calc is
               signal total : integer := 0;
               signal fact5 : integer := 0;
             begin
               process
                 variable acc : integer := 0;
                 variable f : integer := 1;
               begin
                 for i in 1 to 10 loop
                   acc := acc + i;
                 end loop;
                 total <= acc;
                 for i in 1 to 5 loop
                   f := f * i;
                 end loop;
                 fact5 <= f;
                 wait;
               end process;
             end a;",
            "calc",
        )
        .unwrap();
    sim.run_until(ns(1)).unwrap();
    assert_eq!(sim.value_by_name("calc.total"), Some(&Val::Int(55)));
    assert_eq!(sim.value_by_name("calc.fact5"), Some(&Val::Int(120)));
}

#[test]
fn package_function_called_across_units() {
    let c = Compiler::in_memory();
    let r = c
        .compile(
            "package math is
               function square (x : integer) return integer;
             end math;
             package body math is
               function square (x : integer) return integer is
               begin
                 return x * x;
               end square;
             end math;",
        )
        .unwrap();
    assert!(r.ok(), "{}", r.msgs());
    let mut sim = c
        .simulate(
            "use work.math.all;
             entity user is end;
             architecture a of user is
               signal s : integer := 0;
             begin
               process
               begin
                 s <= square(7);
                 wait;
               end process;
             end a;",
            "user",
        )
        .unwrap();
    sim.run_until(ns(1)).unwrap();
    assert_eq!(sim.value_by_name("user.s"), Some(&Val::Int(49)));
}

#[test]
fn structural_hierarchy_with_configuration() {
    let c = Compiler::in_memory();
    let r = c
        .compile(
            "entity inv is
               port (i : in bit; o : out bit);
             end inv;
             architecture fast of inv is
             begin
               o <= not i;
             end fast;
             architecture slow of inv is
             begin
               o <= not i after 3 ns;
             end slow;
             entity pair is end;
             architecture structural of pair is
               component inv
                 port (i : in bit; o : out bit);
               end component;
               signal a, b, cc : bit := '0';
               for u1 : inv use entity work.inv(fast);
             begin
               u1 : inv port map (i => a, o => b);
               u2 : inv port map (i => b, o => cc);
               stim : process
               begin
                 a <= '1' after 10 ns;
                 wait;
               end process;
             end structural;",
        )
        .unwrap();
    assert!(r.ok(), "{}", r.msgs());
    // Default binding for u2: latest compiled architecture of inv = slow.
    let (program, c_text) = c.elaborate("pair", None, None).unwrap();
    assert!(c_text.contains("proc_"), "C rendition exists");
    let mut sim = sim_kernel::Simulator::new(program);
    sim.run_until(ns(1)).unwrap();
    // At t=0: b = not a = 1 (fast inverter settles in a delta), cc = not b,
    // slow: 0 after 3ns — initially cc computes from b=0 → 1 at 3ns, then
    // b flips to 1 → cc goes 0 at some later point.
    sim.run_until(ns(30)).unwrap();
    assert_eq!(
        sim.value_by_name("pair.b"),
        Some(&Val::Int(0)),
        "b = not a = not 1"
    );
    assert_eq!(
        sim.value_by_name("pair.cc"),
        Some(&Val::Int(1)),
        "cc = not b (slow)"
    );
}

#[test]
fn explicit_configuration_unit() {
    let c = Compiler::in_memory();
    let r = c
        .compile(
            "entity buf is
               port (i : in bit; o : out bit);
             end buf;
             architecture direct of buf is
             begin
               o <= i;
             end direct;
             architecture delayed of buf is
             begin
               o <= i after 7 ns;
             end delayed;
             entity top is end;
             architecture s of top is
               component buf
                 port (i : in bit; o : out bit);
               end component;
               signal x, y : bit := '0';
             begin
               u1 : buf port map (i => x, o => y);
               stim : process
               begin
                 x <= '1' after 1 ns;
                 wait;
               end process;
             end s;
             configuration use_delayed of top is
               for s
                 for u1 : buf use entity work.buf(direct); end for;
               end for;
             end use_delayed;",
        )
        .unwrap();
    assert!(r.ok(), "{}", r.msgs());
    // Via the configuration: direct binding (despite `delayed` being the
    // latest architecture).
    let (program, _) = c.elaborate_config("use_delayed", None).unwrap();
    let mut sim = sim_kernel::Simulator::new(program);
    sim.run_until(ns(2)).unwrap();
    assert_eq!(sim.value_by_name("top.y"), Some(&Val::Int(1)));
    // Default elaboration would pick `delayed`.
    let (program, _) = c.elaborate("top", None, None).unwrap();
    let mut sim = sim_kernel::Simulator::new(program);
    sim.run_until(ns(2)).unwrap();
    assert_eq!(
        sim.value_by_name("top.y"),
        Some(&Val::Int(0)),
        "7ns delay not elapsed"
    );
}

#[test]
fn generics_parameterize_instances() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity delayline is
               generic (d : integer := 1);
               port (i : in bit; o : out bit);
             end delayline;
             architecture a of delayline is
             begin
               o <= i after d * 1 ns;
             end a;
             entity top is end;
             architecture s of top is
               component delayline
                 generic (d : integer := 1);
                 port (i : in bit; o : out bit);
               end component;
               signal x, quick, lazy : bit := '0';
             begin
               u1 : delayline generic map (d => 2) port map (i => x, o => quick);
               u2 : delayline generic map (d => 20) port map (i => x, o => lazy);
               stim : process
               begin
                 x <= '1' after 1 ns;
                 wait;
               end process;
             end s;",
            "top",
        )
        .unwrap();
    sim.run_until(ns(5)).unwrap();
    assert_eq!(sim.value_by_name("top.quick"), Some(&Val::Int(1)));
    assert_eq!(sim.value_by_name("top.lazy"), Some(&Val::Int(0)));
    sim.run_until(ns(25)).unwrap();
    assert_eq!(sim.value_by_name("top.lazy"), Some(&Val::Int(1)));
}

#[test]
fn case_statement_state_machine() {
    let c = Compiler::in_memory();
    let sim = c
        .simulate(
            "entity fsm is end;
             architecture a of fsm is
             begin
               p? : process begin wait; end process;
             end a;",
            "fsm",
        )
        .map(|_| ())
        .err();
    // Stray characters are rejected by the scanner — sanity-check the
    // error channel works end to end.
    assert!(sim.is_some());

    let mut sim = c
        .simulate(
            "entity fsm is end;
             architecture a of fsm is
               type state is (idle, run, done);
               signal st : state := idle;
               signal clk : bit := '0';
               signal finished : boolean := false;
             begin
               clkgen : process
               begin
                 clk <= not clk after 5 ns;
                 wait on clk;
               end process;
               step : process (clk)
               begin
                 if clk = '1' then
                   case st is
                     when idle => st <= run;
                     when run => st <= done;
                     when done => finished <= true;
                   end case;
                 end if;
               end process;
             end a;",
            "fsm",
        )
        .unwrap();
    sim.run_until(ns(30)).unwrap();
    // Rising edges at 5, 15, 25 → idle→run→done→finished.
    assert_eq!(sim.value_by_name("fsm.st"), Some(&Val::Int(2)));
    assert_eq!(sim.value_by_name("fsm.finished"), Some(&Val::Int(1)));
}

#[test]
fn bit_vectors_and_aggregates() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity vecs is end;
             architecture a of vecs is
               signal v : bit_vector(7 downto 0) := (others => '0');
               signal hi : bit_vector(3 downto 0) := \"0000\";
             begin
               process
               begin
                 v <= \"10100101\";
                 wait for 1 ns;
                 hi <= v(7 downto 4);
                 wait for 1 ns;
                 v(0) <= '1';
                 wait;
               end process;
             end a;",
            "vecs",
        )
        .unwrap();
    sim.run_until(ns(5)).unwrap();
    assert_eq!(
        sim.value_by_name("vecs.hi"),
        Some(&Val::bits(&[1, 0, 1, 0]))
    );
    let v = sim.value_by_name("vecs.v").unwrap();
    assert_eq!(v.as_arr().data[7].as_int(), 1, "element assignment landed");
}

#[test]
fn assertions_report_through_kernel() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity checker is end;
             architecture a of checker is
               signal x : integer := 3;
             begin
               process
               begin
                 wait for 1 ns;
                 assert x = 4 report \"x is not four\" severity warning;
                 wait;
               end process;
             end a;",
            "checker",
        )
        .unwrap();
    sim.run_until(ns(5)).unwrap();
    assert_eq!(sim.reports().len(), 1);
    assert_eq!(sim.reports()[0].text, "x is not four");
    assert_eq!(sim.reports()[0].severity, 1);
}

#[test]
fn wait_until_condition() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity wu is end;
             architecture a of wu is
               signal clk : bit := '0';
               signal n : integer := 0;
               signal seen : integer := 0;
             begin
               clkgen : process
               begin
                 clk <= not clk after 5 ns;
                 n <= n + 1;
                 wait on clk;
               end process;
               waiter : process
               begin
                 wait until n = 4;
                 seen <= n;
                 wait;
               end process;
             end a;",
            "wu",
        )
        .unwrap();
    sim.run_until(ns(60)).unwrap();
    assert_eq!(sim.value_by_name("wu.seen"), Some(&Val::Int(4)));
}

#[test]
fn guarded_block_drives_only_when_enabled() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity gb is end;
             architecture a of gb is
               signal en, d, q : bit := '0';
             begin
               stim : process
               begin
                 d <= '1' after 2 ns;
                 en <= '1' after 10 ns;
                 wait;
               end process;
               b : block (en = '1')
               begin
                 q <= guarded d after 1 ns;
               end block b;
             end a;",
            "gb",
        )
        .unwrap();
    sim.run_until(ns(8)).unwrap();
    assert_eq!(
        sim.value_by_name("gb.q"),
        Some(&Val::Int(0)),
        "guard closed"
    );
    sim.run_until(ns(20)).unwrap();
    assert_eq!(sim.value_by_name("gb.q"), Some(&Val::Int(1)), "guard open");
}

#[test]
fn subtype_range_violation_traps() {
    let c = Compiler::in_memory();
    let mut sim = c
        .simulate(
            "entity rv is end;
             architecture a of rv is
             begin
               process
                 variable v : integer range 0 to 9 := 0;
               begin
                 v := v + 1;
                 wait for 1 ns;
               end process;
             end a;",
            "rv",
        )
        .unwrap();
    let err = sim.run_until(ns(20)).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("outside range"), "{text}");
}

/// Compiles each source with its own `Compiler::compile` call into one
/// in-memory library, then elaborates `top` from the last source and
/// returns `top.r` after 1 ns.
fn r_after_separate_compiles(sources: &[&str], top: &str) -> Option<Val> {
    let c = Compiler::in_memory();
    let (last, firsts) = sources.split_last().expect("a top source");
    for src in firsts {
        let r = c.compile(src).unwrap();
        assert!(r.ok(), "{}", r.msgs());
    }
    let mut sim = c.simulate(last, top).unwrap();
    sim.run_until(ns(1)).unwrap();
    sim.value_by_name(&format!("{top}.r")).cloned()
}

#[test]
fn same_position_subprograms_in_two_sources_stay_distinct() {
    // Both `f`s are declared at 2:12 of their own source.
    let package = |name: &str, add: u32| {
        format!(
            "package {name} is\n  function f(x : integer) return integer;\nend {name};\n\
             package body {name} is\n  function f(x : integer) return integer is\n  \
             begin\n    return x + {add};\n  end f;\nend {name};\n"
        )
    };
    let (p1, p2) = (package("p1", 1), package("p2", 100));
    let tf = "entity tf is end;\narchitecture a of tf is\n  signal r : integer := 0;\n\
              begin\n  process begin\n    r <= work.p2.f(0);\n    wait;\n  end process;\nend a;\n";
    assert_eq!(
        r_after_separate_compiles(&[&p1, &p2, tf], "tf"),
        Some(Val::Int(100))
    );
}

#[test]
fn same_position_constant_and_signal_in_two_sources_stay_distinct() {
    // The constant and the signal `k` are both declared at 2:12.
    let p = "package p is\n  constant k : integer := 5;\nend p;\n";
    let tk = "entity tk is end; architecture a of tk is\n    signal k : integer := 7;\n\
              signal r : integer := 0;\nbegin\n  process begin\n    r <= work.p.k;\n    \
              wait;\n  end process;\nend a;\n";
    assert_eq!(r_after_separate_compiles(&[p, tk], "tk"), Some(Val::Int(5)));
}
