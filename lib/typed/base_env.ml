(** The initial type environment (paper §4.2): types for the identifiers
    the base language provides.

    Most primitives have a fixed function type ([Mono]); the numeric and
    list operations need simple overloading over the numeric tower /
    list shapes, expressed as [Special] rules.  Rules are keyed by binding,
    so shadowing a primitive hides its rule. *)

module Binding = Liblang_stx.Binding
module Modsys = Liblang_modules.Modsys
open Types

exception Rule_error of string

let rule_err fmt = Printf.ksprintf (fun s -> raise (Rule_error s)) fmt

type rule =
  | Mono of Types.t
  | Special of (Types.t list -> Types.t)

(* binding uid -> rule *)
let rules : (int, rule) Hashtbl.t = Hashtbl.create 256

(* binding uid -> primitive name, for the optimizer's "is this racket's +" *)
let prim_names : (int, string) Hashtbl.t = Hashtbl.create 256

let prim_name_of (b : Binding.t) : string option = Hashtbl.find_opt prim_names b.Binding.uid
let lookup (b : Binding.t) : rule option = Hashtbl.find_opt rules b.Binding.uid

(* A usable (monomorphic) type for overloaded primitives referenced in
   higher-order position, e.g. [(sort l <)]. *)
let ho_types : (int, Types.t) Hashtbl.t = Hashtbl.create 32
let ho_fallback (b : Binding.t) : Types.t option = Hashtbl.find_opt ho_types b.Binding.uid

(* -- numeric rules --------------------------------------------------------------- *)

let all_subtype ts t = List.for_all (fun x -> subtype x t) ts

let arith name ts =
  if ts = [] then rule_err "%s: expects arguments" name;
  if all_subtype ts Integer then Integer
  else if all_subtype ts Real then if List.exists (equal Float) ts then Float else Real
  else if all_subtype ts Number then
    if List.exists (fun t -> subtype t FloatComplex) ts then FloatComplex else Number
  else rule_err "%s: expects numbers, given %s" name (String.concat " " (List.map to_string ts))

let division name ts =
  if ts = [] then rule_err "%s: expects arguments" name;
  if all_subtype ts Real then if List.exists (equal Float) ts then Float else Real
  else if all_subtype ts Number then
    if List.exists (fun t -> subtype t FloatComplex) ts then FloatComplex else Number
  else rule_err "%s: expects numbers" name

let comparison name ts =
  if all_subtype ts Real then Boolean else rule_err "%s: expects real numbers" name

let num_eq ts = if all_subtype ts Number then Boolean else rule_err "=: expects numbers"

let real_preserving name = function
  | [ Integer ] -> Integer
  | [ Float ] -> Float
  | [ t ] when subtype t Real -> Real
  | _ -> rule_err "%s: expects one real number" name

let float_fun name = function
  | [ t ] when subtype t Real -> Float
  | _ -> rule_err "%s: expects one real number" name

(* -- list rules --------------------------------------------------------------------- *)

let rule_car name = function
  | [ Any ] -> Any (* dynamic *)
  | [ ListT (t :: _) ] -> t
  | [ Pairof (a, _) ] -> a
  | [ Listof t ] -> t
  | ts -> rule_err "%s: expects a pair, given %s" name (String.concat " " (List.map to_string ts))

let rule_cdr name = function
  | [ Any ] -> Any (* dynamic *)
  | [ ListT (_ :: ts) ] -> ListT ts
  | [ Pairof (_, d) ] -> d
  | [ Listof t ] -> Listof t
  | _ -> rule_err "%s: expects a pair" name

let rec listof_view = function
  | Listof t -> Some t
  | ListT ts -> Some (List.fold_left join (match ts with [] -> Any | t :: _ -> t) ts)
  | Null -> Some Any
  | Pairof (a, d) -> ( match listof_view d with Some t -> Some (join a t) | None -> None)
  | Union ts -> (
      match List.map listof_view ts with
      | [] -> None
      | v :: vs ->
          List.fold_left
            (fun acc v ->
              match (acc, v) with Some a, Some b -> Some (join a b) | _ -> None)
            v vs)
  | _ -> None

let expect_listof name t =
  match listof_view t with Some e -> e | None -> rule_err "%s: expects a list, given %s" name (to_string t)

(* [cons] returns the precise pair type; [Pairof] is a subtype of the
   matching [Listof], so list-typed contexts still accept it. *)
let rule_cons = function
  | [ a; ListT ts ] -> ListT (a :: ts)
  | [ a; Null ] -> ListT [ a ]
  | [ a; d ] -> Pairof (a, d)
  | _ -> rule_err "cons: expects 2 arguments"

let rule_append ts =
  let elems = List.map (expect_listof "append") ts in
  match elems with [] -> Null | e :: rest -> Listof (List.fold_left join e rest)

let fun_view name = function
  | Fun (doms, rng) -> (doms, rng)
  | t -> rule_err "%s: expects a function, given %s" name (to_string t)

let rule_map name = function
  | [ f; l ] ->
      let doms, rng = fun_view name f in
      let elem = expect_listof name l in
      (match doms with
      | [ d ] -> if not (subtype elem d) then rule_err "%s: element type %s does not fit %s" name (to_string elem) (to_string d)
      | _ -> rule_err "%s: function arity mismatch" name);
      Listof rng
  | [ f; l1; l2 ] ->
      let doms, rng = fun_view name f in
      let e1 = expect_listof name l1 and e2 = expect_listof name l2 in
      (match doms with
      | [ d1; d2 ] ->
          if not (subtype e1 d1 && subtype e2 d2) then rule_err "%s: element types do not fit" name
      | _ -> rule_err "%s: function arity mismatch" name);
      Listof rng
  | _ -> rule_err "%s: bad arguments" name

(* -- registration ----------------------------------------------------------------------- *)

let register_for_module (mod_name : string) =
  let m = Modsys.find mod_name in
  let bind_of name =
    List.find_opt (fun e -> String.equal e.Modsys.ext_name name) m.Modsys.exports
    |> Option.map (fun e -> e.Modsys.binding)
  in
  let reg name rule =
    match bind_of name with
    | Some b ->
        Hashtbl.replace rules b.Binding.uid rule;
        Hashtbl.replace prim_names b.Binding.uid name
    | None -> ()
  in
  let sp name f = reg name (Special (f name)) in
  let sp' name f = reg name (Special f) in
  let mono name doms rng = reg name (Mono (Fun (doms, rng))) in
  (* numeric *)
  sp "+" arith;
  sp "-" arith;
  sp "*" arith;
  sp "/" division;
  sp "<" comparison;
  sp ">" comparison;
  sp "<=" comparison;
  sp ">=" comparison;
  sp' "=" num_eq;
  sp "min" arith;
  sp "max" arith;
  sp "abs" real_preserving;
  sp "add1" real_preserving;
  sp "sub1" real_preserving;
  sp' "sqrt" (function
    | [ Float ] -> Float (* documented simplification; see DESIGN.md *)
    | [ FloatComplex ] -> FloatComplex
    | [ t ] when subtype t Number -> Number
    | _ -> rule_err "sqrt: expects a number");
  List.iter (fun n -> sp n float_fun) [ "sin"; "cos"; "tan"; "asin"; "acos"; "exp"; "log"; "atan" ];
  sp' "expt" (function
    | [ a; b ] when subtype a Real && subtype b Real ->
        if equal a Float || equal b Float then Float else Real
    | _ -> rule_err "expt: expects real numbers");
  List.iter (fun n -> sp n real_preserving) [ "floor"; "ceiling"; "truncate"; "round" ];
  mono "quotient" [ Integer; Integer ] Integer;
  mono "remainder" [ Integer; Integer ] Integer;
  mono "modulo" [ Integer; Integer ] Integer;
  mono "gcd" [ Integer; Integer ] Integer;
  sp' "magnitude" (function
    | [ FloatComplex ] -> Float
    | [ Integer ] -> Integer
    | [ Float ] -> Float
    | [ t ] when subtype t Real -> Real
    | [ t ] when subtype t Number -> Real
    | _ -> rule_err "magnitude: expects a number");
  sp' "real-part" (function
    | [ FloatComplex ] -> Float
    | [ t ] when subtype t Real -> t
    | [ t ] when subtype t Number -> Real
    | _ -> rule_err "real-part: expects a number");
  sp' "imag-part" (function
    | [ FloatComplex ] -> Float
    | [ t ] when subtype t Real -> Real
    | [ t ] when subtype t Number -> Real
    | _ -> rule_err "imag-part: expects a number");
  mono "make-rectangular" [ Real; Real ] FloatComplex;
  mono "make-polar" [ Real; Real ] FloatComplex;
  sp' "exact->inexact" (function
    | [ t ] when subtype t Real -> Float
    | [ FloatComplex ] -> FloatComplex
    | [ t ] when subtype t Number -> Number
    | _ -> rule_err "exact->inexact: expects a number");
  mono "exact->float" [ Real ] Float;
  mono "inexact->exact" [ Real ] Real;
  mono "exact" [ Real ] Real;
  (* predicates *)
  List.iter
    (fun n -> mono n [ Any ] Boolean)
    [
      "number?"; "integer?"; "exact-integer?"; "fixnum?"; "flonum?"; "real?"; "complex?";
      "boolean?"; "string?"; "symbol?"; "char?"; "pair?"; "null?"; "empty?"; "list?"; "vector?";
      "procedure?"; "void?"; "box?"; "not"; "promise?"; "hash?";
    ];
  List.iter
    (fun n -> sp' n (fun ts -> comparison n ts))
    [ "zero?"; "positive?"; "negative?" ];
  mono "even?" [ Integer ] Boolean;
  mono "odd?" [ Integer ] Boolean;
  (* lists *)
  sp "car" rule_car;
  sp "first" rule_car;
  sp "cdr" rule_cdr;
  sp "rest" rule_cdr;
  sp' "second" (fun ts -> rule_car "second" [ rule_cdr "second" ts ]);
  sp' "third" (fun ts -> rule_car "third" [ rule_cdr "third" [ rule_cdr "third" ts ] ]);
  sp' "cadr" (fun ts -> rule_car "cadr" [ rule_cdr "cadr" ts ]);
  sp' "caddr" (fun ts -> rule_car "caddr" [ rule_cdr "caddr" [ rule_cdr "caddr" ts ] ]);
  sp' "cddr" (fun ts -> rule_cdr "cddr" [ rule_cdr "cddr" ts ]);
  sp' "cons" rule_cons;
  sp' "list" (fun ts -> ListT ts);
  sp' "append" rule_append;
  sp' "reverse" (function
    | [ ListT ts ] -> ListT (List.rev ts)
    | [ t ] -> Listof (expect_listof "reverse" t)
    | _ -> rule_err "reverse: expects a list");
  sp' "length" (function
    | [ t ] ->
        ignore (expect_listof "length" t);
        Integer
    | _ -> rule_err "length: expects a list");
  sp' "list-ref" (function
    | [ l; i ] when subtype i Integer -> expect_listof "list-ref" l
    | _ -> rule_err "list-ref: expects a list and an integer");
  sp' "list-tail" (function
    | [ l; i ] when subtype i Integer -> Listof (expect_listof "list-tail" l)
    | _ -> rule_err "list-tail: expects a list and an integer");
  List.iter (fun n -> mono n [ Any; Any ] Any) [ "member"; "memq"; "memv"; "assoc"; "assq" ];
  sp "map" rule_map;
  sp' "for-each" (fun ts ->
      ignore (rule_map "for-each" ts);
      Void_);
  sp' "filter" (function
    | [ f; l ] ->
        let doms, _ = fun_view "filter" f in
        let elem = expect_listof "filter" l in
        (match doms with
        | [ d ] when subtype elem d -> ()
        | _ -> rule_err "filter: predicate does not fit element type");
        Listof elem
    | _ -> rule_err "filter: bad arguments");
  sp' "foldl" (function
    | [ f; init; l ] ->
        let doms, rng = fun_view "foldl" f in
        let elem = expect_listof "foldl" l in
        (match doms with
        | [ d; acc ] when subtype elem d && subtype init acc && subtype rng acc -> rng
        | _ -> rule_err "foldl: function does not fit")
    | _ -> rule_err "foldl: bad arguments");
  sp' "foldr" (function
    | [ f; init; l ] ->
        let doms, rng = fun_view "foldr" f in
        let elem = expect_listof "foldr" l in
        (match doms with
        | [ d; acc ] when subtype elem d && subtype init acc && subtype rng acc -> rng
        | _ -> rule_err "foldr: function does not fit")
    | _ -> rule_err "foldr: bad arguments");
  sp' "andmap" (fun ts ->
      ignore (rule_map "andmap" ts);
      Boolean);
  sp' "ormap" (fun ts ->
      ignore (rule_map "ormap" ts);
      Boolean);
  sp' "build-list" (function
    | [ n; f ] when subtype n Integer ->
        let doms, rng = fun_view "build-list" f in
        (match doms with
        | [ d ] when subtype Integer d -> Listof rng
        | _ -> rule_err "build-list: function must accept an Integer")
    | _ -> rule_err "build-list: bad arguments");
  sp' "sort" (function
    | [ l; f ] ->
        let elem = expect_listof "sort" l in
        let doms, rng = fun_view "sort" f in
        (match doms with
        | [ a; b ] when subtype elem a && subtype elem b && subtype rng Boolean -> Listof elem
        | _ -> rule_err "sort: comparison does not fit element type")
    | _ -> rule_err "sort: bad arguments");
  sp' "last" (fun ts -> expect_listof "last" (List.hd ts));
  sp' "take" (function
    | [ l; n ] when subtype n Integer -> Listof (expect_listof "take" l)
    | _ -> rule_err "take: expects a list and an integer");
  sp' "drop" (function
    | [ l; n ] when subtype n Integer -> Listof (expect_listof "drop" l)
    | _ -> rule_err "drop: expects a list and an integer");
  sp' "remove" (function
    | [ _; l ] -> Listof (expect_listof "remove" l)
    | _ -> rule_err "remove: expects a value and a list");
  sp' "count" (function
    | [ f; l ] ->
        let doms, _ = fun_view "count" f in
        let elem = expect_listof "count" l in
        (match doms with
        | [ d ] when subtype elem d -> Integer
        | _ -> rule_err "count: predicate does not fit element type")
    | _ -> rule_err "count: bad arguments");
  sp' "range" (fun ts ->
      if List.for_all (fun t -> subtype t Integer) ts && ts <> [] then Listof Integer
      else rule_err "range: expects integers");
  mono "string-contains?" [ String_; String_ ] Boolean;
  mono "string-split" [ String_; String_ ] (Listof String_);
  mono "string-join" [ Listof String_; String_ ] String_;
  (* vectors *)
  sp' "vector" (function
    | [] -> Vectorof Any
    | t :: ts -> Vectorof (List.fold_left join t ts));
  sp' "make-vector" (function
    | [ n ] when subtype n Integer -> Vectorof Integer
    | [ n; fill ] when subtype n Integer -> Vectorof fill
    | _ -> rule_err "make-vector: bad arguments");
  sp' "vector-ref" (function
    | [ Vectorof t; i ] when subtype i Integer -> t
    | _ -> rule_err "vector-ref: expects a vector and an integer");
  sp' "vector-set!" (function
    | [ Vectorof t; i; v ] when subtype i Integer && subtype v t -> Void_
    | _ -> rule_err "vector-set!: value does not fit vector element type");
  sp' "vector-length" (function
    | [ Vectorof _ ] -> Integer
    | _ -> rule_err "vector-length: expects a vector");
  sp' "vector->list" (function
    | [ Vectorof t ] -> Listof t
    | _ -> rule_err "vector->list: expects a vector");
  sp' "list->vector" (function
    | [ t ] -> Vectorof (expect_listof "list->vector" t)
    | _ -> rule_err "list->vector: expects a list");
  sp' "build-vector" (function
    | [ n; f ] when subtype n Integer ->
        let doms, rng = fun_view "build-vector" f in
        (match doms with
        | [ d ] when subtype Integer d -> Vectorof rng
        | _ -> rule_err "build-vector: function must accept an Integer")
    | _ -> rule_err "build-vector: bad arguments");
  sp' "vector-copy" (function
    | [ Vectorof t ] -> Vectorof t
    | _ -> rule_err "vector-copy: expects a vector");
  sp' "vector-fill!" (function
    | [ Vectorof t; v ] when subtype v t -> Void_
    | _ -> rule_err "vector-fill!: value does not fit");
  sp' "vector-map" (function
    | [ f; Vectorof t ] ->
        let doms, rng = fun_view "vector-map" f in
        (match doms with
        | [ d ] when subtype t d -> Vectorof rng
        | _ -> rule_err "vector-map: function does not fit")
    | _ -> rule_err "vector-map: bad arguments");
  (* strings, symbols, chars *)
  mono "string-length" [ String_ ] Integer;
  mono "string-ref" [ String_; Integer ] Char_;
  mono "string-set!" [ String_; Integer; Char_ ] Void_;
  sp' "substring" (function
    | [ String_; i ] when subtype i Integer -> String_
    | [ String_; i; j ] when subtype i Integer && subtype j Integer -> String_
    | _ -> rule_err "substring: bad arguments");
  sp' "string-append" (fun ts ->
      if List.for_all (fun t -> subtype t String_) ts then String_
      else rule_err "string-append: expects strings");
  sp' "string" (fun ts ->
      if List.for_all (fun t -> subtype t Char_) ts then String_
      else rule_err "string: expects characters");
  sp' "make-string" (function
    | [ n ] when subtype n Integer -> String_
    | [ n; c ] when subtype n Integer && subtype c Char_ -> String_
    | _ -> rule_err "make-string: bad arguments");
  mono "string->symbol" [ String_ ] Symbol;
  mono "symbol->string" [ Symbol ] String_;
  mono "string->list" [ String_ ] (Listof Char_);
  mono "list->string" [ Listof Char_ ] String_;
  mono "string-copy" [ String_ ] String_;
  mono "string-upcase" [ String_ ] String_;
  mono "string-downcase" [ String_ ] String_;
  mono "string=?" [ String_; String_ ] Boolean;
  mono "string<?" [ String_; String_ ] Boolean;
  mono "string->number" [ String_ ] Any;
  mono "number->string" [ Number ] String_;
  mono "char->integer" [ Char_ ] Integer;
  mono "integer->char" [ Integer ] Char_;
  mono "char=?" [ Char_; Char_ ] Boolean;
  mono "char<?" [ Char_; Char_ ] Boolean;
  mono "char-upcase" [ Char_ ] Char_;
  mono "char-alphabetic?" [ Char_ ] Boolean;
  mono "char-numeric?" [ Char_ ] Boolean;
  sp' "gensym" (fun _ -> Symbol);
  (* equality, io, misc *)
  List.iter (fun n -> mono n [ Any; Any ] Boolean) [ "eq?"; "eqv?"; "equal?" ];
  List.iter (fun n -> mono n [ Any ] Void_) [ "display"; "write"; "displayln" ];
  sp' "newline" (fun _ -> Void_);
  sp' "printf" (function
    | fmt :: _ when subtype fmt String_ -> Void_
    | _ -> rule_err "printf: expects a format string");
  sp' "format" (function
    | fmt :: _ when subtype fmt String_ -> String_
    | _ -> rule_err "format: expects a format string");
  sp' "error" (fun _ -> Any);
  sp' "void" (fun _ -> Void_);
  mono "identity" [ Any ] Any;
  sp' "current-seconds" (fun _ -> Integer);
  sp' "current-inexact-milliseconds" (fun _ -> Float);
  mono "box" [ Any ] Any;
  mono "unbox" [ Any ] Any;
  mono "set-box!" [ Any; Any ] Void_;
  (* unsafe primitives, so optimizer output re-checks *)
  List.iter
    (fun n -> mono n [ Float; Float ] Float)
    [ "unsafe-fl+"; "unsafe-fl-"; "unsafe-fl*"; "unsafe-fl/"; "unsafe-flmin"; "unsafe-flmax"; "unsafe-flexpt" ];
  List.iter
    (fun n -> mono n [ Float; Float ] Boolean)
    [ "unsafe-fl<"; "unsafe-fl>"; "unsafe-fl<="; "unsafe-fl>="; "unsafe-fl=" ];
  List.iter
    (fun n -> mono n [ Float ] Float)
    [
      "unsafe-flabs"; "unsafe-flsqrt"; "unsafe-flsin"; "unsafe-flcos"; "unsafe-fltan";
      "unsafe-flatan"; "unsafe-flexp"; "unsafe-fllog"; "unsafe-flfloor"; "unsafe-flceiling";
      "unsafe-flround"; "unsafe-fltruncate";
    ];
  List.iter
    (fun n -> mono n [ Number; Number ] FloatComplex)
    [ "unsafe-c+"; "unsafe-c-"; "unsafe-c*"; "unsafe-c/" ];
  mono "unsafe-fx->fl" [ Integer ] Float;
  mono "unsafe-magnitude" [ Number ] Float;
  mono "unsafe-real-part" [ Number ] Float;
  mono "unsafe-imag-part" [ Number ] Float;
  mono "unsafe-make-rectangular" [ Real; Real ] FloatComplex;
  sp "unsafe-car" rule_car;
  sp "unsafe-cdr" rule_cdr;
  sp' "unsafe-vector-ref" (function
    | [ Vectorof t; i ] when subtype i Integer -> t
    | _ -> rule_err "unsafe-vector-ref: bad arguments");
  sp' "unsafe-vector-set!" (function
    | [ Vectorof t; i; v ] when subtype i Integer && subtype v t -> Void_
    | _ -> rule_err "unsafe-vector-set!: bad arguments");
  sp' "unsafe-vector-length" (function
    | [ Vectorof _ ] -> Integer
    | _ -> rule_err "unsafe-vector-length: bad arguments");
  sp' "unchecked-vector-ref" (function
    | [ Vectorof t; i ] when subtype i Integer -> t
    | _ -> rule_err "unchecked-vector-ref: bad arguments");
  sp' "unchecked-vector-set!" (function
    | [ Vectorof t; i; v ] when subtype i Integer && subtype v t -> Void_
    | _ -> rule_err "unchecked-vector-set!: bad arguments");
  (* higher-order fallbacks for overloaded primitives *)
  let ho name t = match bind_of name with Some b -> Hashtbl.replace ho_types b.Binding.uid t | None -> () in
  List.iter (fun n -> ho n (Fun ([ Number; Number ], Number))) [ "+"; "-"; "*"; "/"; "min"; "max" ];
  List.iter (fun n -> ho n (Fun ([ Real; Real ], Boolean))) [ "<"; ">"; "<="; ">="; "=" ];
  List.iter (fun n -> ho n (Fun ([ Number ], Number))) [ "add1"; "sub1"; "abs"; "sqrt" ];
  List.iter (fun n -> ho n (Fun ([ Real ], Float))) [ "sin"; "cos"; "exp"; "log" ]

(* Worker domains typecheck concurrently.  The tables are filled under
   [init_lock] and [initialized] is set only once they are full, so a
   domain that sees the flag never reads a half-filled table. *)
let initialized = Atomic.make false
let init_lock = Mutex.create ()

let ensure_initialized () =
  if not (Atomic.get initialized) then
    Mutex.protect init_lock (fun () ->
        if not (Atomic.get initialized) then begin
          register_for_module "racket";
          Atomic.set initialized true
        end)
