(* Minimal JSON: just enough for the result cache and the benchmark
   report — no external dependency. Floats print with "%.17g" so that
   every finite double round-trips bit-exactly through the cache. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* Keep whole doubles readable ("8" not "8.0000000000000000"). *)
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write b ~indent ~level v =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let newline () = if indent then Buffer.add_char b '\n' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_nan f || Float.is_integer (f /. 0.) then
        (* nan/inf are not JSON; the cache never stores them, but do
           not emit garbage if a caller does. *)
        Buffer.add_string b "null"
      else Buffer.add_string b (float_repr f)
  | String s -> escape_string b s
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      Buffer.add_char b '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char b ',';
            newline ()
          end;
          pad (level + 1);
          write b ~indent ~level:(level + 1) item)
        items;
      newline ();
      pad level;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_char b '{';
      newline ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            newline ()
          end;
          pad (level + 1);
          escape_string b k;
          Buffer.add_string b (if indent then ": " else ":");
          write b ~indent ~level:(level + 1) item)
        fields;
      newline ();
      pad level;
      Buffer.add_char b '}'

let to_string ?(indent = false) v =
  let b = Buffer.create 256 in
  write b ~indent ~level:0 v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)

type parser_state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  let len = String.length st.src in
  while
    st.pos < len
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st ch =
  match peek st with
  | Some c when c = ch -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" ch)

let parse_literal st word v =
  let len = String.length word in
  if
    st.pos + len <= String.length st.src
    && String.sub st.src st.pos len = word
  then begin
    st.pos <- st.pos + len;
    v
  end
  else fail st ("expected " ^ word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' ->
            if st.pos + 4 >= String.length st.src then
              fail st "truncated \\u escape";
            let hex = String.sub st.src (st.pos + 1) 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> fail st "bad \\u escape"
            in
            (* The cache only ever stores ASCII; decode the BMP code
               point as UTF-8 without surrogate-pair handling. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
            end;
            st.pos <- st.pos + 4
        | _ -> fail st "bad escape");
        st.pos <- st.pos + 1;
        go ()
    | Some c ->
        Buffer.add_char b c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let len = String.length st.src in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < len && is_num_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.src start (st.pos - start) in
  let is_float =
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
  in
  if is_float then begin
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st "bad number"
  end
  else begin
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail st "bad number")
  end

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let member_exn k v =
  match member k v with
  | Some x -> x
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" k))

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
