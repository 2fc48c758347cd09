//! The principal VHDL grammar.
//!
//! Following the paper's cascaded-evaluation design (§4.1), this grammar
//! "does not contain … most of the aspects of compiling expressions":
//! every expression position is parsed as a flat *token run*
//! (`expr_run`/`ctok_run`), which semantic analysis later flattens into
//! LEF and re-parses with the expression AG once names are resolved. This
//! sidesteps the `X(Y)` call/index/slice/conversion ambiguity entirely —
//! the principal parser never has to guess.
//!
//! The grammar is strictly LALR(1) (no lenient conflict resolution):
//! [`PrincipalGrammar::new`] builds the table with
//! [`ag_lalr::ParseTable::build`] and would fail loudly on any conflict.
//! The grammar and table are plain immutable data, so the compiler builds
//! them once per process ([`PrincipalGrammar::shared`]), the way Linguist
//! generates the parser once for every compilation (§2).

use std::sync::{Arc, OnceLock};

use ag_lalr::{
    Grammar, GrammarBuilder, ParseError, ParseTable, ParseTree, Parser, ProdId, SymbolId, Token,
};

use crate::lexer::{lex, LexError};
use crate::token::{SrcTok, TokenKind};

/// The built principal grammar with its LALR(1) table: plain data, `Send`
/// and `Sync`, shared by every thread through [`PrincipalGrammar::shared`].
pub struct PrincipalGrammar {
    grammar: Arc<Grammar>,
    table: ParseTable,
}

/// Errors from [`PrincipalGrammar::parse_str`].
#[derive(Clone, Debug)]
pub enum FrontError {
    /// Scanner error.
    Lex(LexError),
    /// Parser error, with the position of the offending token when known.
    Parse {
        /// The parse error (token index, found, expected).
        error: ParseError,
        /// Source position of the offending token.
        pos: Option<crate::token::Pos>,
    },
}

impl std::fmt::Display for FrontError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontError::Lex(e) => write!(f, "{e}"),
            FrontError::Parse { error, pos } => match pos {
                Some(p) => write!(f, "at {p}: {error}"),
                None => write!(f, "{error}"),
            },
        }
    }
}

impl std::error::Error for FrontError {}

impl From<LexError> for FrontError {
    fn from(e: LexError) -> Self {
        FrontError::Lex(e)
    }
}

impl PrincipalGrammar {
    /// The process-wide grammar and table, built by the first caller on
    /// any thread.
    pub fn shared() -> &'static PrincipalGrammar {
        static SHARED: OnceLock<PrincipalGrammar> = OnceLock::new();
        SHARED.get_or_init(PrincipalGrammar::new)
    }

    /// Builds the grammar and its LALR(1) table from scratch (benches and
    /// tests that time or check generation; the compiler uses
    /// [`PrincipalGrammar::shared`]).
    ///
    /// # Panics
    ///
    /// Panics if the grammar has conflicts — that would be a bug in this
    /// crate, not a user error.
    pub fn new() -> Self {
        let grammar = Arc::new(build_grammar());
        let table = match ParseTable::build(&grammar) {
            Ok(t) => t,
            Err(e) => panic!("principal grammar is not LALR(1):\n{e}"),
        };
        PrincipalGrammar { grammar, table }
    }

    /// The underlying grammar (for attribute-grammar construction).
    pub fn grammar(&self) -> Arc<Grammar> {
        Arc::clone(&self.grammar)
    }

    /// The parse table.
    pub fn table(&self) -> &ParseTable {
        &self.table
    }

    /// Terminal symbol for a token kind: the kinds are the grammar's
    /// first symbols, in declaration order.
    pub fn terminal(&self, kind: TokenKind) -> SymbolId {
        SymbolId::from_index(kind as usize)
    }

    /// Production id by label.
    ///
    /// # Panics
    ///
    /// Panics when the label does not exist (a bug in rule-writing code).
    pub fn prod(&self, label: &str) -> ProdId {
        self.grammar
            .prod_by_label(label)
            .unwrap_or_else(|| panic!("no production labelled `{label}`"))
    }

    /// Lexes and parses a full design file.
    ///
    /// # Errors
    ///
    /// Returns [`FrontError`] on scan or parse failure.
    pub fn parse_str(&self, src: &str) -> Result<ParseTree<SrcTok>, FrontError> {
        self.parse_eliding(src, &[])
    }

    /// Lexes and parses a full design file, leaving out the nodes of the
    /// productions flagged in `transparent` (see
    /// [`ag_lalr::Parser::eliding`]).
    ///
    /// # Errors
    ///
    /// Returns [`FrontError`] on scan or parse failure.
    pub fn parse_eliding(
        &self,
        src: &str,
        transparent: &[bool],
    ) -> Result<ParseTree<SrcTok>, FrontError> {
        let toks = lex(src)?;
        Parser::eliding(&self.grammar, &self.table, transparent)
            .parse(toks.iter().map(|&t| Token::new(self.terminal(t.kind), t)))
            .map_err(|error| {
                let pos = toks.get(error.at).map(|t| t.pos);
                FrontError::Parse { error, pos }
            })
    }
}

impl Default for PrincipalGrammar {
    fn default() -> Self {
        Self::new()
    }
}

/// The grammar: every token kind is a terminal, registered first in
/// declaration order (so [`PrincipalGrammar::terminal`] is an index), and
/// every other word of a rule is a nonterminal.
fn build_grammar() -> Grammar {
    let mut b = GrammarBuilder::new();
    for k in TokenKind::all() {
        b.terminal(k.name());
    }

    // ----- design files and context clauses -------------------------------
    b.rule("design_file", "design_units", "df");
    b.rule("design_units", "design_unit", "dus_one");
    b.rule("design_units", "design_units design_unit", "dus_more");
    b.rule("design_unit", "context_items library_unit", "du_ctx");
    b.rule("design_unit", "library_unit", "du_plain");
    b.rule("context_items", "context_item", "ctxs_one");
    b.rule("context_items", "context_items context_item", "ctxs_more");
    b.rule("context_item", "library_clause", "ctx_lib");
    b.rule("context_item", "use_clause", "ctx_use");
    b.rule("library_clause", "library id_list ';'", "lib_clause");
    b.rule("id_list", "id", "ids_one");
    b.rule("id_list", "id_list ',' id", "ids_more");
    b.rule("use_clause", "use name_list ';'", "use_clause");
    b.rule("library_unit", "entity_decl", "lu_entity");
    b.rule("library_unit", "architecture_body", "lu_arch");
    b.rule("library_unit", "package_decl", "lu_pkg");
    b.rule("library_unit", "package_body", "lu_pkg_body");
    b.rule("library_unit", "configuration_decl", "lu_config");

    // ----- names -----------------------------------------------------------
    b.rule("name", "id", "name_id");
    b.rule("name", "name '.' id", "name_sel");
    b.rule("name", "name '.' all", "name_all");
    b.rule("name", "name '.' string_lit", "name_op");
    b.rule("name", "name '(' ctok_run ')'", "name_paren");
    b.rule("name_list", "name", "names_one");
    b.rule("name_list", "name_list ',' name", "names_more");

    // ----- entity / architecture / package / configuration -----------------
    b.rule(
        "entity_decl",
        "entity id is generic_clause_opt port_clause_opt decl_items end_name",
        "entity_decl",
    );
    b.rule("end_name", "end ';'", "end_plain");
    b.rule("end_name", "end id ';'", "end_id");
    b.rule("generic_clause_opt", "", "gc_none");
    b.rule(
        "generic_clause_opt",
        "generic '(' iface_list ')' ';'",
        "gc_some",
    );
    b.rule("port_clause_opt", "", "pc_none");
    b.rule("port_clause_opt", "port '(' iface_list ')' ';'", "pc_some");
    b.rule(
        "architecture_body",
        "architecture id of name is decl_items begin conc_stmts end_name",
        "arch_body",
    );
    b.rule(
        "package_decl",
        "package id is decl_items end_name",
        "pkg_decl",
    );
    b.rule(
        "package_body",
        "package body id is decl_items end_name",
        "pkg_body",
    );
    b.rule(
        "configuration_decl",
        "configuration id of name is block_config end_name",
        "config_decl",
    );
    b.rule(
        "block_config",
        "for id config_items end for ';'",
        "block_config",
    );
    b.rule("config_items", "", "cfgitems_none");
    b.rule("config_items", "config_items config_item", "cfgitems_more");
    b.rule("config_item", "comp_config", "cfgitem_comp");
    b.rule("config_item", "use_clause", "cfgitem_use");
    b.rule(
        "comp_config",
        "for inst_list ':' name comp_binding end for ';'",
        "comp_config",
    );
    b.rule("comp_binding", "", "compbind_none");
    b.rule("comp_binding", "binding_ind ';'", "compbind_some");
    b.rule("inst_list", "id_list", "insts_ids");
    b.rule("inst_list", "others", "insts_others");
    b.rule("inst_list", "all", "insts_all");
    // Entity/configuration names in bindings are dotted names only — a
    // paren suffix here must be the architecture indication, not part of
    // the name (using full `name` would be ambiguous on `)`).
    b.rule("sel_name", "id", "sel_id");
    b.rule("sel_name", "sel_name '.' id", "sel_dot");
    b.rule(
        "binding_ind",
        "use entity sel_name arch_ind_opt map_aspects",
        "bind_entity",
    );
    b.rule(
        "binding_ind",
        "use configuration sel_name map_aspects",
        "bind_config",
    );
    b.rule("binding_ind", "use open", "bind_open");
    b.rule("arch_ind_opt", "", "archind_none");
    b.rule("arch_ind_opt", "'(' id ')'", "archind_some");
    b.rule("map_aspects", "generic_map_opt port_map_opt", "map_aspects");
    b.rule("generic_map_opt", "", "gm_none");
    b.rule(
        "generic_map_opt",
        "generic map '(' assoc_list ')'",
        "gm_some",
    );
    b.rule("port_map_opt", "", "pm_none");
    b.rule("port_map_opt", "port map '(' assoc_list ')'", "pm_some");
    b.rule("assoc_list", "assoc_elem", "assocs_one");
    b.rule("assoc_list", "assoc_list ',' assoc_elem", "assocs_more");
    b.rule("assoc_elem", "expr_run", "assoc_pos");
    b.rule("assoc_elem", "expr_run '=>' expr_run", "assoc_named");
    b.rule("assoc_elem", "expr_run '=>' open", "assoc_open");
    b.rule("assoc_elem", "open", "assoc_pos_open");

    // ----- interface lists --------------------------------------------------
    b.rule("iface_list", "iface_elem", "ifaces_one");
    b.rule("iface_list", "iface_list ';' iface_elem", "ifaces_more");
    b.rule(
        "iface_elem",
        "iface_class_opt id_list ':' mode_opt subtype_ind bus_opt default_opt",
        "iface_elem",
    );
    b.rule("iface_class_opt", "", "ifc_none");
    b.rule("iface_class_opt", "constant", "ifc_constant");
    b.rule("iface_class_opt", "signal", "ifc_signal");
    b.rule("iface_class_opt", "variable", "ifc_variable");
    b.rule("mode_opt", "", "mode_none");
    b.rule("mode_opt", "in", "mode_in");
    b.rule("mode_opt", "out", "mode_out");
    b.rule("mode_opt", "inout", "mode_inout");
    b.rule("mode_opt", "buffer", "mode_buffer");
    b.rule("mode_opt", "linkage", "mode_linkage");
    b.rule("bus_opt", "", "bus_none");
    b.rule("bus_opt", "bus", "bus_some");
    b.rule("default_opt", "", "dflt_none");
    b.rule("default_opt", "':=' expr_run", "dflt_some");

    // ----- subtype indications ----------------------------------------------
    b.rule("subtype_ind", "name", "sti_plain");
    b.rule("subtype_ind", "name name", "sti_resolved");
    b.rule("subtype_ind", "name range expr_run", "sti_range");

    // ----- declarations -----------------------------------------------------
    b.rule("decl_items", "", "decls_none");
    b.rule("decl_items", "decl_items decl_item", "decls_more");
    for (lhs, label) in [
        ("type_decl", "decl_type"),
        ("subtype_decl", "decl_subtype"),
        ("constant_decl", "decl_constant"),
        ("signal_decl", "decl_signal"),
        ("variable_decl", "decl_variable"),
        ("alias_decl", "decl_alias"),
        ("attribute_decl", "decl_attr"),
        ("attribute_spec", "decl_attr_spec"),
        ("component_decl", "decl_component"),
        ("subprogram_decl", "decl_subprog"),
        ("subprogram_body", "decl_subprog_body"),
        ("use_clause", "decl_use"),
        ("config_spec", "decl_config_spec"),
    ] {
        b.rule("decl_item", lhs, label);
    }
    b.rule("type_decl", "type id is type_def ';'", "type_decl");
    b.rule("type_def", "'(' enum_lits ')'", "td_enum");
    b.rule("type_def", "range expr_run phys_opt", "td_range");
    b.rule(
        "type_def",
        "array '(' ctok_run ')' of subtype_ind",
        "td_array",
    );
    b.rule("type_def", "record element_decls end record", "td_record");
    b.rule("enum_lits", "enum_lit", "enums_one");
    b.rule("enum_lits", "enum_lits ',' enum_lit", "enums_more");
    b.rule("enum_lit", "id", "enum_id");
    b.rule("enum_lit", "char_lit", "enum_char");
    b.rule("phys_opt", "", "phys_none");
    b.rule(
        "phys_opt",
        "units id ';' secondary_units end units",
        "phys_some",
    );
    b.rule("secondary_units", "", "secus_none");
    b.rule(
        "secondary_units",
        "secondary_units secondary_unit",
        "secus_more",
    );
    b.rule("secondary_unit", "id '=' expr_run ';'", "secu");
    b.rule("element_decls", "element_decl", "elems_one");
    b.rule("element_decls", "element_decls element_decl", "elems_more");
    b.rule("element_decl", "id_list ':' subtype_ind ';'", "elem_decl");
    b.rule(
        "subtype_decl",
        "subtype id is subtype_ind ';'",
        "subtype_decl",
    );
    b.rule(
        "constant_decl",
        "constant id_list ':' subtype_ind default_opt ';'",
        "constant_decl",
    );
    b.rule(
        "signal_decl",
        "signal id_list ':' subtype_ind signal_kind_opt default_opt ';'",
        "signal_decl",
    );
    b.rule("signal_kind_opt", "", "skind_none");
    b.rule("signal_kind_opt", "register", "skind_register");
    b.rule("signal_kind_opt", "bus", "skind_bus");
    b.rule(
        "variable_decl",
        "variable id_list ':' subtype_ind default_opt ';'",
        "variable_decl",
    );
    b.rule(
        "alias_decl",
        "alias id ':' subtype_ind is name ';'",
        "alias_decl",
    );
    b.rule("attribute_decl", "attribute id ':' name ';'", "attr_decl");
    b.rule(
        "attribute_spec",
        "attribute id of entity_name_list ':' entity_class is expr_run ';'",
        "attr_spec",
    );
    b.rule("entity_name_list", "id_list", "enl_ids");
    b.rule("entity_name_list", "others", "enl_others");
    b.rule("entity_name_list", "all", "enl_all");
    for (kw, label) in [
        ("entity", "ec_entity"),
        ("architecture", "ec_architecture"),
        ("configuration", "ec_configuration"),
        ("procedure", "ec_procedure"),
        ("function", "ec_function"),
        ("package", "ec_package"),
        ("type", "ec_type"),
        ("subtype", "ec_subtype"),
        ("constant", "ec_constant"),
        ("signal", "ec_signal"),
        ("variable", "ec_variable"),
        ("component", "ec_component"),
    ] {
        b.rule("entity_class", kw, label);
    }
    b.rule(
        "component_decl",
        "component id generic_clause_opt port_clause_opt end component ';'",
        "component_decl",
    );
    b.rule(
        "subprogram_spec",
        "procedure designator params_opt",
        "spec_proc",
    );
    b.rule(
        "subprogram_spec",
        "function designator params_opt return name",
        "spec_func",
    );
    b.rule("designator", "id", "desig_id");
    b.rule("designator", "string_lit", "desig_op");
    b.rule("params_opt", "", "params_none");
    b.rule("params_opt", "'(' iface_list ')'", "params_some");
    b.rule("subprogram_decl", "subprogram_spec ';'", "subprog_decl");
    b.rule(
        "subprogram_body",
        "subprogram_spec is decl_items begin seq_stmts end designator_opt ';'",
        "subprog_body",
    );
    b.rule("designator_opt", "", "desigo_none");
    b.rule("designator_opt", "id", "desigo_id");
    b.rule("designator_opt", "string_lit", "desigo_op");
    b.rule(
        "config_spec",
        "for inst_list ':' name binding_ind ';'",
        "config_spec",
    );

    // ----- concurrent statements -------------------------------------------
    b.rule("conc_stmts", "", "concs_none");
    b.rule("conc_stmts", "conc_stmts conc_stmt", "concs_more");
    b.rule("conc_stmt", "id ':' conc_body", "conc_labelled");
    b.rule("conc_stmt", "unlabeled_conc", "conc_plain");
    b.rule("conc_body", "process_stmt", "cb_process");
    b.rule("conc_body", "block_stmt", "cb_block");
    b.rule("conc_body", "component_inst", "cb_inst");
    b.rule("conc_body", "cond_signal_assign", "cb_cond_assign");
    b.rule("conc_body", "sel_signal_assign", "cb_sel_assign");
    b.rule("conc_body", "assert_stmt", "cb_assert");
    b.rule("unlabeled_conc", "process_stmt", "uc_process");
    b.rule("unlabeled_conc", "cond_signal_assign", "uc_cond_assign");
    b.rule("unlabeled_conc", "sel_signal_assign", "uc_sel_assign");
    b.rule("unlabeled_conc", "assert_stmt", "uc_assert");
    b.rule(
        "process_stmt",
        "process sens_opt decl_items begin seq_stmts end process label_opt ';'",
        "process_stmt",
    );
    b.rule("sens_opt", "", "sens_none");
    b.rule("sens_opt", "'(' name_list ')'", "sens_some");
    b.rule("label_opt", "", "lblo_none");
    b.rule("label_opt", "id", "lblo_id");
    b.rule(
        "block_stmt",
        "block guard_opt decl_items begin conc_stmts end block label_opt ';'",
        "block_stmt",
    );
    b.rule("guard_opt", "", "guard_none");
    b.rule("guard_opt", "'(' expr_run ')'", "guard_some");
    b.rule(
        "component_inst",
        "name generic_map_opt port_map_opt ';'",
        "component_inst",
    );
    b.rule(
        "cond_signal_assign",
        "name '<=' options_opt cond_waveforms ';'",
        "cond_assign",
    );
    b.rule("options_opt", "", "opt_none");
    b.rule("options_opt", "guarded", "opt_guarded");
    b.rule("options_opt", "transport", "opt_transport");
    b.rule("options_opt", "guarded transport", "opt_guarded_transport");
    b.rule("cond_waveforms", "waveform", "cwf_last");
    b.rule(
        "cond_waveforms",
        "waveform when expr_run else cond_waveforms",
        "cwf_cond",
    );
    b.rule("waveform", "wave_elem", "wf_one");
    b.rule("waveform", "waveform ',' wave_elem", "wf_more");
    b.rule("wave_elem", "expr_run", "we_plain");
    b.rule("wave_elem", "expr_run after expr_run", "we_after");
    b.rule(
        "sel_signal_assign",
        "with expr_run select name '<=' options_opt sel_waveforms ';'",
        "sel_assign",
    );
    b.rule("sel_waveforms", "waveform when choices", "swf_one");
    b.rule(
        "sel_waveforms",
        "sel_waveforms ',' waveform when choices",
        "swf_more",
    );
    b.rule("choices", "choice", "choices_one");
    b.rule("choices", "choices '|' choice", "choices_more");
    b.rule("choice", "expr_run", "choice_expr");
    b.rule("choice", "others", "choice_others");

    // ----- sequential statements -------------------------------------------
    b.rule("seq_stmts", "", "seqs_none");
    b.rule("seq_stmts", "seq_stmts seq_stmt", "seqs_more");
    for (lhs, label) in [
        ("wait_stmt", "ss_wait"),
        ("assert_stmt", "ss_assert"),
        ("if_stmt", "ss_if"),
        ("case_stmt", "ss_case"),
        ("loop_stmt", "ss_loop"),
        ("next_stmt", "ss_next"),
        ("exit_stmt", "ss_exit"),
        ("return_stmt", "ss_return"),
        ("null_stmt", "ss_null"),
        ("target_stmt", "ss_target"),
    ] {
        b.rule("seq_stmt", lhs, label);
    }
    b.rule(
        "wait_stmt",
        "wait on_opt until_opt tfor_opt ';'",
        "wait_stmt",
    );
    b.rule("on_opt", "", "on_none");
    b.rule("on_opt", "on name_list", "on_some");
    b.rule("until_opt", "", "until_none");
    b.rule("until_opt", "until expr_run", "until_some");
    b.rule("tfor_opt", "", "tfor_none");
    b.rule("tfor_opt", "for expr_run", "tfor_some");
    b.rule(
        "assert_stmt",
        "assert expr_run report_opt severity_opt ';'",
        "assert_stmt",
    );
    b.rule("report_opt", "", "report_none");
    b.rule("report_opt", "report expr_run", "report_some");
    b.rule("severity_opt", "", "sev_none");
    b.rule("severity_opt", "severity expr_run", "sev_some");
    b.rule(
        "target_stmt",
        "name '<=' transport_opt waveform ';'",
        "sig_assign",
    );
    b.rule("target_stmt", "name ':=' expr_run ';'", "var_assign");
    b.rule("target_stmt", "name ';'", "proc_call");
    b.rule("transport_opt", "", "tr_none");
    b.rule("transport_opt", "transport", "tr_some");
    b.rule("if_stmt", "if expr_run then seq_stmts if_tail", "if_stmt");
    b.rule("if_tail", "end if ';'", "ift_end");
    b.rule("if_tail", "else seq_stmts end if ';'", "ift_else");
    b.rule(
        "if_tail",
        "elsif expr_run then seq_stmts if_tail",
        "ift_elsif",
    );
    b.rule(
        "case_stmt",
        "case expr_run is case_alts end case ';'",
        "case_stmt",
    );
    b.rule("case_alts", "case_alt", "alts_one");
    b.rule("case_alts", "case_alts case_alt", "alts_more");
    b.rule("case_alt", "when choices '=>' seq_stmts", "case_alt");
    b.rule(
        "loop_stmt",
        "loop_head loop seq_stmts end loop ';'",
        "loop_stmt",
    );
    b.rule("loop_head", "", "lh_forever");
    b.rule("loop_head", "while expr_run", "lh_while");
    b.rule("loop_head", "for id in expr_run", "lh_for");
    b.rule("next_stmt", "next when_opt ';'", "next_stmt");
    b.rule("exit_stmt", "exit when_opt ';'", "exit_stmt");
    b.rule("when_opt", "", "when_none");
    b.rule("when_opt", "when expr_run", "when_some");
    b.rule("return_stmt", "return ';'", "return_plain");
    b.rule("return_stmt", "return expr_run ';'", "return_value");
    b.rule("null_stmt", "null ';'", "null_stmt");

    // ----- expression token runs (the LEF feed, §4.1) ------------------------
    b.rule("expr_run", "expr_tok", "er_one");
    b.rule("expr_run", "expr_run expr_tok", "er_more");
    for (tok, label) in [
        ("id", "et_id"),
        ("int_lit", "et_int"),
        ("real_lit", "et_real"),
        ("char_lit", "et_char"),
        ("string_lit", "et_string"),
        ("bit_string_lit", "et_bitstring"),
        ("tick", "et_tick"),
        ("'.'", "et_dot"),
        ("'&'", "et_amp"),
        ("'+'", "et_plus"),
        ("'-'", "et_minus"),
        ("'*'", "et_star"),
        ("'/'", "et_slash"),
        ("'**'", "et_dstar"),
        ("'='", "et_eq"),
        ("'/='", "et_neq"),
        ("'<'", "et_lt"),
        ("'<='", "et_lte"),
        ("'>'", "et_gt"),
        ("'>='", "et_gte"),
        ("and", "et_and"),
        ("or", "et_or"),
        ("nand", "et_nand"),
        ("nor", "et_nor"),
        ("xor", "et_xor"),
        ("not", "et_not"),
        ("abs", "et_abs"),
        ("mod", "et_mod"),
        ("rem", "et_rem"),
        ("to", "et_to"),
        ("downto", "et_downto"),
        ("range", "et_range"),
        ("null", "et_null"),
    ] {
        b.rule("expr_tok", tok, label);
    }
    b.rule("expr_tok", "'(' ctok_run ')'", "et_group");
    b.rule("ctok_run", "ctok", "cr_one");
    b.rule("ctok_run", "ctok_run ctok", "cr_more");
    b.rule("ctok", "expr_tok", "ct_expr");
    b.rule("ctok", "','", "ct_comma");
    b.rule("ctok", "'=>'", "ct_arrow");
    b.rule("ctok", "others", "ct_others");
    b.rule("ctok", "'<>'", "ct_box");
    b.rule("ctok", "open", "ct_open");

    let start = b.nonterminal("design_file");
    b.start(start);
    b.build().expect("principal grammar is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pg() -> &'static PrincipalGrammar {
        PrincipalGrammar::shared()
    }

    #[test]
    fn grammar_is_lalr1() {
        let g = PrincipalGrammar::new();
        assert!(g.grammar().n_user_prods() > 150);
        assert!(g.table().n_states() > 100);
    }

    #[test]
    fn every_kind_indexes_the_terminal_of_its_name() {
        let g = pg();
        let grammar = g.grammar();
        for &k in TokenKind::all() {
            assert_eq!(Some(g.terminal(k)), grammar.symbol(k.name()), "{k}");
        }
    }

    #[test]
    fn parses_minimal_entity() {
        let g = pg();
        g.parse_str("entity e is end;").unwrap();
        g.parse_str("entity e is end e;").unwrap();
    }

    #[test]
    fn parses_entity_with_ports_and_generics() {
        let g = pg();
        g.parse_str(
            "entity counter is
               generic (width : integer := 8);
               port (clk, reset : in bit; q : out integer);
             end counter;",
        )
        .unwrap();
    }

    #[test]
    fn parses_architecture_with_process() {
        let g = pg();
        g.parse_str(
            "architecture rtl of counter is
               signal count : integer := 0;
             begin
               tick : process (clk)
                 variable v : integer;
               begin
                 if clk = '1' then
                   v := count + 1;
                   count <= v;
                 end if;
               end process tick;
               q <= count;
             end rtl;",
        )
        .unwrap();
    }

    #[test]
    fn parses_package_and_body() {
        let g = pg();
        g.parse_str(
            "package p is
               type state is (idle, run, done);
               constant max : integer := 100;
               function inc (x : integer) return integer;
             end p;
             package body p is
               function inc (x : integer) return integer is
               begin
                 return x + 1;
               end inc;
             end p;",
        )
        .unwrap();
    }

    #[test]
    fn parses_use_and_library_clauses() {
        let g = pg();
        g.parse_str(
            "library ieee;
             use ieee.std_logic_1164.all;
             use work.p.inc;
             entity e is end;",
        )
        .unwrap();
    }

    #[test]
    fn parses_component_and_configuration() {
        let g = pg();
        g.parse_str(
            "architecture structural of top is
               component nand2
                 port (a, b : in bit; y : out bit);
               end component;
               signal x, y, z : bit;
               for u1 : nand2 use entity work.nand2_impl(fast);
             begin
               u1 : nand2 port map (a => x, b => y, y => z);
               u2 : nand2 port map (x, y, z);
             end structural;
             configuration cfg of top is
               for structural
                 for u2 : nand2 use entity work.nand2_impl(slow); end for;
               end for;
             end cfg;",
        )
        .unwrap();
    }

    #[test]
    fn parses_expression_token_runs() {
        let g = pg();
        // The four faces of X(Y) — all parse identically as token runs.
        g.parse_str(
            "architecture a of e is
             begin
               p : process
                 variable v : integer;
               begin
                 v := f(y);
                 v := arr(3);
                 v := arr(1 to 2)'length;
                 v := integer(x);
                 wait for 10 ns;
               end process;
             end a;",
        )
        .unwrap();
    }

    #[test]
    fn parses_aggregates_and_named_args() {
        let g = pg();
        g.parse_str(
            "architecture a of e is
               signal v : bit_vector(7 downto 0);
             begin
               v <= (others => '0');
               v <= (0 => '1', others => '0') after 5 ns;
             end a;",
        )
        .unwrap();
    }

    #[test]
    fn parses_selected_and_conditional_assignment() {
        let g = pg();
        g.parse_str(
            "architecture a of e is
             begin
               q <= a when sel = '1' else b when sel = '0' else c;
               with state select
                 y <= \"00\" when idle,
                      \"01\" when run,
                      \"11\" when others;
             end a;",
        )
        .unwrap();
    }

    #[test]
    fn parses_types() {
        let g = pg();
        g.parse_str(
            "package types is
               type color is (red, green, blue);
               type small is range 0 to 255;
               type dur is range 0 to 1000000
                 units fs; ps = 1000 fs; ns = 1000 ps; end units;
               type word is array (31 downto 0) of bit;
               type mem is array (natural range <>) of word;
               type pair is record x : integer; y : integer; end record;
               subtype nibble is bit_vector(3 downto 0);
             end types;",
        )
        .unwrap();
    }

    #[test]
    fn parses_wait_variants() {
        let g = pg();
        g.parse_str(
            "architecture a of e is
             begin
               process begin
                 wait;
                 wait on clk;
                 wait until clk = '1';
                 wait for 10 ns;
                 wait on clk, reset until ready for 1 us;
               end process;
             end a;",
        )
        .unwrap();
    }

    #[test]
    fn parses_case_and_loops() {
        let g = pg();
        g.parse_str(
            "architecture a of e is
             begin
               process
                 variable i, acc : integer;
               begin
                 case state is
                   when idle => acc := 0;
                   when 1 | 2 => acc := 1;
                   when 3 to 5 => acc := 2;
                   when others => null;
                 end case;
                 for i in 0 to 7 loop
                   acc := acc + i;
                   next when acc > 10;
                   exit when acc > 20;
                 end loop;
                 while acc > 0 loop
                   acc := acc - 1;
                 end loop;
               end process;
             end a;",
        )
        .unwrap();
    }

    #[test]
    fn parses_resolved_signal_and_block() {
        let g = pg();
        g.parse_str(
            "architecture a of e is
               signal bus_line : wired_or bit bus;
             begin
               b : block (en = '1')
                 signal local : bit;
               begin
                 local <= guarded d after 2 ns;
               end block b;
             end a;",
        )
        .unwrap();
    }

    #[test]
    fn parses_attributes() {
        let g = pg();
        g.parse_str(
            "package p is
               attribute cap : integer;
               attribute cap of clk : signal is 10;
             end p;",
        )
        .unwrap();
    }

    #[test]
    fn reports_syntax_error_position() {
        let g = pg();
        let err = g.parse_str("entity e is\n  port x;\nend;").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2:"), "position missing in: {msg}");
    }

    #[test]
    fn rejects_garbage() {
        let g = pg();
        assert!(g.parse_str("entity entity entity").is_err());
        assert!(g.parse_str("").is_err());
    }
}
