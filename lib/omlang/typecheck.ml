let intermediate_form ?(width = 72) (m : Flat_model.t) =
  let header = [ "List["; "  List[" ] in
  let eq_lines =
    List.concat_map
      (fun (s, rhs) ->
        let eq =
          Om_expr.Prefix_form.equation_to_string ~annotate:true ~lhs_var:s rhs
        in
        (* Re-wrap the equation text at argument boundaries. *)
        let parsed_lines =
          (* equation_to_string yields one line; split it through the
             shared wrapper by rendering via to_lines on the rhs and
             prepending the derivative head. *)
          let rhs_lines = Om_expr.Prefix_form.to_lines ~annotate:true ~width rhs in
          match rhs_lines with
          | [] -> [ eq ]
          | first :: rest ->
              Printf.sprintf
                "    Equal[Derivative[1][om$Type[%s, om$Real]][om$Type[t, \
                 om$Real]],"
                s
              :: ("      " ^ first)
              :: List.map (fun l -> "      " ^ l) rest
              @ [ "    ]," ]
        in
        parsed_lines)
      m.equations
  in
  let footer =
    [
      "  ],";
      "  List[om$Type[t, om$Real], om$Type[tstart, om$Real], om$Type[tend, \
       om$Real]]";
      "]";
    ]
  in
  header @ eq_lines @ footer

let intermediate_line_count m = List.length (intermediate_form m)

let check (m : Flat_model.t) =
  let states = List.map fst m.states in
  let eq_states = List.map fst m.equations in
  let set_of names =
    let h = Hashtbl.create (2 * List.length names) in
    List.iter (fun s -> Hashtbl.replace h s ()) names;
    Hashtbl.mem h
  in
  let is_state = set_of states in
  (* The compiled env lays states out before time, so a state named [t]
     would shadow time in the VM but not in the tree interpreter. *)
  if is_state "t" then
    invalid_arg
      "Typecheck.check: t is reserved for time and cannot name a state";
  (if List.sort compare states <> List.sort compare eq_states then
     let has_eq = set_of eq_states in
     let missing = List.filter (fun s -> not (has_eq s)) states in
     let extra = List.filter (fun s -> not (is_state s)) eq_states in
     let part what = function
       | [] -> []
       | names -> [ Printf.sprintf "%s %s" what (String.concat ", " names) ]
     in
     let detail =
       part "states without an equation:" missing
       @ part "equations without a state:" extra
     in
     let detail =
       if detail = [] then "duplicate names" else String.concat "; " detail
     in
     invalid_arg
       (Printf.sprintf "Typecheck.check: states and equations do not match (%s)"
          detail));
  List.iter
    (fun (s, rhs) ->
      List.iter
        (fun v ->
          if (not (is_state v)) && v <> "t" then
            invalid_arg
              (Printf.sprintf "Typecheck.check: %s is free in equation for %s"
                 v s))
        (Om_expr.Expr.vars rhs))
    m.equations
