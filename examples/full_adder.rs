//! A structural ripple-carry adder: components, generics, port maps,
//! separate compilation, and a configuration unit that swaps gate
//! implementations — exercising the §3.3 binding rules (explicit
//! configuration vs the latest-compiled-architecture default).
//!
//! ```sh
//! cargo run --example full_adder
//! ```

use sim_kernel::{Time, Val};
use vhdl_driver::Compiler;

const GATES: &str = "
entity xor2 is
  port (a, b : in bit; y : out bit);
end xor2;
architecture behav of xor2 is
begin
  y <= a xor b;
end behav;
architecture lazy of xor2 is
begin
  y <= a xor b after 2 ns;
end lazy;

entity and2 is
  port (a, b : in bit; y : out bit);
end and2;
architecture behav of and2 is
begin
  y <= a and b;
end behav;

entity or2 is
  port (a, b : in bit; y : out bit);
end or2;
architecture behav of or2 is
begin
  y <= a or b;
end behav;
";

const ADDER: &str = "
entity full_adder is
  port (a, b, cin : in bit; sum, cout : out bit);
end full_adder;
architecture structural of full_adder is
  component xor2 port (a, b : in bit; y : out bit); end component;
  component and2 port (a, b : in bit; y : out bit); end component;
  component or2  port (a, b : in bit; y : out bit); end component;
  signal ab, g1, g2 : bit := '0';
begin
  x1 : xor2 port map (a => a,   b => b,   y => ab);
  x2 : xor2 port map (a => ab,  b => cin, y => sum);
  a1 : and2 port map (a => a,   b => b,   y => g1);
  a2 : and2 port map (a => ab,  b => cin, y => g2);
  o1 : or2  port map (a => g1,  b => g2,  y => cout);
end structural;

entity tb is end;
architecture bench of tb is
  component full_adder
    port (a, b, cin : in bit; sum, cout : out bit);
  end component;
  signal a, b, cin, sum, cout : bit := '0';
begin
  dut : full_adder port map (a, b, cin, sum, cout);
  stim : process
  begin
    a <= '1' after 10 ns;
    b <= '1' after 20 ns;
    cin <= '1' after 30 ns;
    wait;
  end process;
end bench;

configuration fast_tb of tb is
  for bench
    for all : full_adder use entity work.full_adder(structural); end for;
  end for;
end fast_tb;
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiler = Compiler::in_memory();
    // Separate compilation: gates first, then the adder and testbench.
    for (name, src) in [("gates", GATES), ("adder", ADDER)] {
        let r = compiler.compile(src).map_err(|e| e.to_string())?;
        if !r.ok() {
            return Err(format!("{name}: {}", r.msgs()).into());
        }
        println!("{name}: {} unit(s) compiled into work", r.units.len());
    }

    // Elaborate via the configuration unit.
    let (program, c_text) = compiler.elaborate_config("fast_tb", None)?;
    println!(
        "hierarchy: {} signals, {} processes; generated C: {} lines",
        program.signals.len(),
        program.processes.len(),
        c_text.lines().count()
    );
    let mut sim = sim_kernel::Simulator::new(program);

    // Truth-table walk: (a,b,cin) changes at 10/20/30 ns.
    let mut check = |t_ns: u64, sum: i64, cout: i64| -> Result<(), Box<dyn std::error::Error>> {
        sim.run_until(Time::fs(t_ns * 1_000_000))?;
        let s = sim.value_by_name("tb.sum").expect("sum");
        let c = sim.value_by_name("tb.cout").expect("cout");
        println!("t={t_ns:>2}ns  sum={s} cout={c}");
        assert_eq!(s, &Val::Int(sum), "sum at {t_ns}ns");
        assert_eq!(c, &Val::Int(cout), "cout at {t_ns}ns");
        Ok(())
    };
    check(5, 0, 0)?; // 0+0+0
    check(15, 1, 0)?; // 1+0+0
    check(25, 0, 1)?; // 1+1+0
    check(35, 1, 1)?; // 1+1+1
    println!("full adder truth table verified");
    Ok(())
}
