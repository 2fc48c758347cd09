//! The principal attribute grammar (§2.2, §4).
//!
//! Decorates the full VHDL grammar of `vhdl-syntax` with the analysis
//! attributes: the applicative `ENV`/`ENVO` environment chain, `MSGS`
//! diagnostics, `LEVEL` nesting depth, and the structural collection
//! attributes the out-of-line functions consume. The token run of a
//! maximal expression, which feeds the cascade, is no attribute: a rule
//! reads it from the tree (`Dep::Leaves`) as a list of `Value::Tok`. Plumbing rules are implicit (§4.2); the explicit
//! rules live in [`crate::principal_rules`].

use std::sync::{Arc, OnceLock};

use ag_core::{AgBuilder, AttrDir, AttrGrammar, ClassId, Implicit};
use vhdl_syntax::PrincipalGrammar;

use crate::msg::Msgs;
use crate::principal_rules;
use crate::value::Value;

/// Attribute classes of the principal AG.
#[derive(Clone, Copy, Debug)]
pub struct PrincipalClasses {
    /// Inherited environment.
    pub env: ClassId,
    /// Inherited analysis context (loader + predefined types).
    pub ctx: ClassId,
    /// Inherited subprogram nesting level (the paper's `LEVEL` example).
    pub level: ClassId,
    /// Inherited expected return type inside function bodies.
    pub ret: ClassId,
    /// Inherited statement label (concurrent statements).
    pub label: ClassId,
    /// Synthesized diagnostics (the ubiquitous `MSGS` of §4.2).
    pub msgs: ClassId,
    /// Synthesized environment-out (declaration chaining).
    pub envo: ClassId,
    /// Synthesized declaration-result bundle `[Env, List(decls), Msgs]`.
    pub res: ClassId,
    /// Synthesized exported declarations.
    pub decls: ClassId,
    /// Synthesized configuration specifications.
    pub cfgs: ClassId,
    /// Synthesized statement IR lists.
    pub stmts: ClassId,
    /// Synthesized concurrent-statement nodes.
    pub concs: ClassId,
    /// Synthesized analyzed units.
    pub units: ClassId,
    /// Synthesized interface descriptors.
    pub ifaces: ClassId,
    /// Synthesized per-name token bundles.
    pub names: ClassId,
    /// Synthesized identifier token lists.
    pub ids: ClassId,
    /// Synthesized structural descriptor (production-specific).
    pub info: ClassId,
    /// Synthesized subtype-indication bundle.
    pub sti: ClassId,
    /// Synthesized waveform descriptors.
    pub waves: ClassId,
    /// Synthesized conditional-waveform structure.
    pub cwaves: ClassId,
    /// Synthesized selected-waveform pairs.
    pub swaves: ClassId,
    /// Synthesized case alternatives.
    pub alts: ClassId,
    /// Synthesized choice descriptors.
    pub choices: ClassId,
    /// Synthesized association descriptors.
    pub assocs: ClassId,
    /// Synthesized miscellaneous structured lists (record elements,
    /// secondary units, configuration items).
    pub items: ClassId,
}

/// The built principal AG.
pub struct PrincipalAg {
    /// The attribute grammar over the principal grammar.
    pub ag: AttrGrammar<Value>,
    /// Class handles.
    pub classes: PrincipalClasses,
}

impl PrincipalAg {
    /// The process-wide attribution over [`PrincipalGrammar::shared`],
    /// built by the first caller on any thread: its rules and implicit
    /// rules are `Send + Sync` and it holds no per-unit state.
    pub fn shared() -> &'static PrincipalAg {
        static SHARED: OnceLock<PrincipalAg> = OnceLock::new();
        SHARED.get_or_init(|| PrincipalAg::build(PrincipalGrammar::shared()))
    }

    /// Builds the attribution over a [`PrincipalGrammar`] (benches that
    /// time generation; analyzers use [`PrincipalAg::shared`]).
    ///
    /// # Panics
    ///
    /// Panics if the AG is malformed — a bug in this crate.
    pub fn build(pg: &PrincipalGrammar) -> PrincipalAg {
        let g = pg.grammar();
        let mut ab = AgBuilder::<Value>::new(Arc::clone(&g));
        ab.leaf_run(Value::list);
        let merge_list = || Implicit::Merge {
            unit: Some(Value::empty_list),
            f: Value::concat_lists,
        };
        let classes = PrincipalClasses {
            env: ab.class("ENV", AttrDir::Inherited, Implicit::Copy),
            ctx: ab.class("CTX", AttrDir::Inherited, Implicit::Copy),
            level: ab.class("LEVEL", AttrDir::Inherited, Implicit::Copy),
            ret: ab.class(
                "RET",
                AttrDir::Inherited,
                Implicit::Unit(|| Value::MaybeNode(None)),
            ),
            label: ab.class("LABEL", AttrDir::Inherited, Implicit::Unit(|| Value::Unit)),
            msgs: ab.class(
                "MSGS",
                AttrDir::Synthesized,
                Implicit::Merge {
                    unit: Some(|| Value::Msgs(Msgs::none())),
                    f: Value::concat_msgs,
                },
            ),
            envo: ab.class("ENVO", AttrDir::Synthesized, Implicit::Copy),
            res: ab.class("RES", AttrDir::Synthesized, Implicit::Copy),
            decls: ab.class("DECLS", AttrDir::Synthesized, merge_list()),
            cfgs: ab.class("CFGS", AttrDir::Synthesized, merge_list()),
            stmts: ab.class("STMTS", AttrDir::Synthesized, merge_list()),
            concs: ab.class("CONCS", AttrDir::Synthesized, merge_list()),
            units: ab.class("UNITS", AttrDir::Synthesized, merge_list()),
            ifaces: ab.class("IFACES", AttrDir::Synthesized, merge_list()),
            names: ab.class("NAMES", AttrDir::Synthesized, merge_list()),
            ids: ab.class("IDS", AttrDir::Synthesized, merge_list()),
            info: ab.class("INFO", AttrDir::Synthesized, Implicit::Copy),
            sti: ab.class("STI", AttrDir::Synthesized, Implicit::Copy),
            waves: ab.class("WAVES", AttrDir::Synthesized, merge_list()),
            cwaves: ab.class("CWAVES", AttrDir::Synthesized, Implicit::Copy),
            swaves: ab.class("SWAVES", AttrDir::Synthesized, merge_list()),
            alts: ab.class("ALTS", AttrDir::Synthesized, merge_list()),
            choices: ab.class("CHOICES", AttrDir::Synthesized, merge_list()),
            assocs: ab.class("ASSOCS", AttrDir::Synthesized, merge_list()),
            items: ab.class("ITEMS", AttrDir::Synthesized, merge_list()),
        };
        attach(&mut ab, &g, &classes);
        principal_rules::install(&mut ab, &g, &classes);
        let ag = match ab.build() {
            Ok(ag) => ag,
            Err(e) => panic!("principal AG malformed: {e}"),
        };
        PrincipalAg { ag, classes }
    }
}

fn attach(ab: &mut AgBuilder<Value>, g: &ag_lalr::Grammar, c: &PrincipalClasses) {
    let nt =
        |g: &ag_lalr::Grammar, n: &str| g.symbol(n).unwrap_or_else(|| panic!("no nonterminal {n}"));

    // The ENV/CTX/LEVEL context set: every nonterminal whose rules resolve
    // names or that passes environments toward them.
    let env_set = [
        "design_file",
        "design_units",
        "design_unit",
        "context_items",
        "context_item",
        "library_clause",
        "use_clause",
        "library_unit",
        "entity_decl",
        "architecture_body",
        "package_decl",
        "package_body",
        "configuration_decl",
        "block_config",
        "config_items",
        "config_item",
        "comp_config",
        "comp_binding",
        "binding_ind",
        "map_aspects",
        "generic_map_opt",
        "port_map_opt",
        "assoc_list",
        "assoc_elem",
        "decl_items",
        "decl_item",
        "type_decl",
        "subtype_decl",
        "constant_decl",
        "signal_decl",
        "variable_decl",
        "alias_decl",
        "attribute_decl",
        "attribute_spec",
        "component_decl",
        "subprogram_decl",
        "subprogram_body",
        "config_spec",
        "conc_stmts",
        "conc_stmt",
        "conc_body",
        "unlabeled_conc",
        "process_stmt",
        "block_stmt",
        "component_inst",
        "cond_signal_assign",
        "sel_signal_assign",
        "seq_stmts",
        "seq_stmt",
        "wait_stmt",
        "assert_stmt",
        "target_stmt",
        "if_stmt",
        "if_tail",
        "case_stmt",
        "case_alts",
        "case_alt",
        "loop_stmt",
        "next_stmt",
        "exit_stmt",
        "return_stmt",
        "null_stmt",
    ];
    for n in env_set {
        ab.attach(c.env, nt(g, n));
        ab.attach(c.ctx, nt(g, n));
        ab.attach(c.level, nt(g, n));
    }

    // MSGS everywhere attributes flow (the paper: "ubiquitous").
    for n in env_set {
        ab.attach(c.msgs, nt(g, n));
    }
    for n in [
        "iface_list",
        "iface_elem",
        "subtype_ind",
        "type_def",
        "element_decls",
        "element_decl",
        "phys_opt",
        "secondary_units",
        "secondary_unit",
    ] {
        ab.attach(c.msgs, nt(g, n));
    }

    // RET on statement carriers.
    for n in [
        "seq_stmts",
        "seq_stmt",
        "wait_stmt",
        "assert_stmt",
        "target_stmt",
        "if_stmt",
        "if_tail",
        "case_stmt",
        "case_alts",
        "case_alt",
        "loop_stmt",
        "next_stmt",
        "exit_stmt",
        "return_stmt",
        "null_stmt",
    ] {
        ab.attach(c.ret, nt(g, n));
    }

    // LABEL on concurrent bodies.
    for n in [
        "conc_body",
        "unlabeled_conc",
        "process_stmt",
        "block_stmt",
        "component_inst",
        "cond_signal_assign",
        "sel_signal_assign",
    ] {
        ab.attach(c.label, nt(g, n));
    }

    // Environment-out chaining.
    for n in [
        "context_items",
        "context_item",
        "library_clause",
        "use_clause",
        "decl_items",
        "decl_item",
        "type_decl",
        "subtype_decl",
        "constant_decl",
        "signal_decl",
        "variable_decl",
        "alias_decl",
        "attribute_decl",
        "attribute_spec",
        "component_decl",
        "subprogram_decl",
        "subprogram_body",
        "config_spec",
    ] {
        ab.attach(c.envo, nt(g, n));
    }

    // Declaration results.
    for n in [
        "type_decl",
        "subtype_decl",
        "constant_decl",
        "signal_decl",
        "variable_decl",
        "alias_decl",
        "attribute_decl",
        "attribute_spec",
        "component_decl",
        "subprogram_decl",
        "subprogram_body",
        "use_clause",
        "config_spec",
    ] {
        ab.attach(c.res, nt(g, n));
    }
    for n in [
        "decl_items",
        "decl_item",
        "type_decl",
        "subtype_decl",
        "constant_decl",
        "signal_decl",
        "variable_decl",
        "alias_decl",
        "attribute_decl",
        "attribute_spec",
        "component_decl",
        "subprogram_decl",
        "subprogram_body",
        "use_clause",
        "config_spec",
    ] {
        ab.attach(c.decls, nt(g, n));
        ab.attach(c.cfgs, nt(g, n));
    }

    // Statements / concurrency / units.
    for n in [
        "seq_stmts",
        "seq_stmt",
        "wait_stmt",
        "assert_stmt",
        "target_stmt",
        "if_stmt",
        "case_stmt",
        "loop_stmt",
        "next_stmt",
        "exit_stmt",
        "return_stmt",
        "null_stmt",
    ] {
        ab.attach(c.stmts, nt(g, n));
    }
    for n in ["conc_stmts", "conc_stmt", "conc_body", "unlabeled_conc"] {
        ab.attach(c.concs, nt(g, n));
    }
    for n in [
        "design_file",
        "design_units",
        "design_unit",
        "library_unit",
        "entity_decl",
        "architecture_body",
        "package_decl",
        "package_body",
        "configuration_decl",
    ] {
        ab.attach(c.units, nt(g, n));
    }

    // Structural collections.
    for n in [
        "iface_list",
        "iface_elem",
        "generic_clause_opt",
        "port_clause_opt",
        "params_opt",
    ] {
        ab.attach(c.ifaces, nt(g, n));
    }
    for n in [
        "name_list",
        "context_items",
        "context_item",
        "library_clause",
        "use_clause",
    ] {
        ab.attach(c.names, nt(g, n));
    }
    for n in ["id_list", "enum_lits", "enum_lit"] {
        ab.attach(c.ids, nt(g, n));
    }
    for n in [
        "iface_class_opt",
        "mode_opt",
        "bus_opt",
        "default_opt",
        "signal_kind_opt",
        "transport_opt",
        "options_opt",
        "when_opt",
        "until_opt",
        "tfor_opt",
        "report_opt",
        "severity_opt",
        "guard_opt",
        "on_opt",
        "sens_opt",
        "label_opt",
        "designator_opt",
        "arch_ind_opt",
        "inst_list",
        "entity_name_list",
        "entity_class",
        "designator",
        "type_def",
        "phys_opt",
        "subprogram_spec",
        "loop_head",
        "if_tail",
        "binding_ind",
        "comp_binding",
        "map_aspects",
        "block_config",
    ] {
        ab.attach(c.info, nt(g, n));
    }
    ab.attach(c.sti, nt(g, "subtype_ind"));
    for n in ["waveform", "wave_elem"] {
        ab.attach(c.waves, nt(g, n));
    }
    ab.attach(c.cwaves, nt(g, "cond_waveforms"));
    ab.attach(c.swaves, nt(g, "sel_waveforms"));
    for n in ["case_alts", "case_alt"] {
        ab.attach(c.alts, nt(g, n));
    }
    for n in ["choices", "choice"] {
        ab.attach(c.choices, nt(g, n));
    }
    for n in [
        "assoc_list",
        "assoc_elem",
        "generic_map_opt",
        "port_map_opt",
    ] {
        ab.attach(c.assocs, nt(g, n));
    }
    for n in [
        "element_decls",
        "element_decl",
        "secondary_units",
        "secondary_unit",
        "config_items",
        "config_item",
        "comp_config",
    ] {
        ab.attach(c.items, nt(g, n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn principal_ag_builds() {
        let pag = PrincipalAg::build(PrincipalGrammar::shared());
        assert!(pag.ag.n_rules() > 200);
        // The paper's headline claim (§4.2): implicit rules are more than
        // half of all rules.
        assert!(
            pag.ag.n_implicit_rules() * 2 > pag.ag.n_rules(),
            "implicit {} of {}",
            pag.ag.n_implicit_rules(),
            pag.ag.n_rules()
        );
    }
}
