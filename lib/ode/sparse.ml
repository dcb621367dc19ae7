(* Sparse Jacobian support for the stiff Newton path.

   Four pieces, all built around one CSR pattern:

   - a greedy distance-2 column coloring, so a finite-difference Jacobian
     needs one RHS evaluation per *color* instead of per column
     (Curtis–Powell–Reid compression; the abstract-elementary-algebra
     sparse-AD route of Peleš & Klus, arXiv 1505.00838);
   - a compressed-column assembly that scatters either symbolic entries
     or colored differences into the CSR value array;
   - a left-looking (Gilbert–Peierls) sparse LU with partial pivoting
     engineered to reproduce the dense {!Linalg.lu_factor} arithmetic
     operation-for-operation, so switching a solver between the dense
     and sparse paths leaves trajectories bitwise identical;
   - a refactorisation that replays the last full factorisation's
     recorded pivot sequence on new values of the same pattern, and
     falls back to a full factorisation when the pivots would change.

   The bitwise claim rests on three facts.  (1) Entries outside the
   pattern are exactly [+0.] in the dense path (structural zeros of the
   RHS reads), so every dense operation the sparse code skips is a
   bitwise no-op.  (2) Updates inside one elimination column are applied
   in ascending pivot order — the same order the dense right-looking
   loop uses — and the triangular solves walk rows in the dense loop
   order.  (3) Pivoting tracks the dense row-swap history through a
   position permutation, so the pivot search sees candidates with the
   dense tie-breaking rule (strictly-greater magnitude wins, first
   position keeps ties).  A replay performs a full factorisation's
   operations in its order and reruns its pivot rule per column, so it
   inherits all three. *)

type pattern = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_ind : int array;
}

let nnz p = p.row_ptr.(p.rows)

let density p =
  if p.rows = 0 || p.cols = 0 then 0.
  else float_of_int (nnz p) /. (float_of_int p.rows *. float_of_int p.cols)

let pattern_of_entries ~rows ~cols entries =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.pattern_of_entries";
  List.iter
    (fun (r, c) ->
      if r < 0 || r >= rows || c < 0 || c >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.pattern_of_entries: (%d,%d) out of %dx%d" r c
             rows cols))
    entries;
  let count = Array.make rows 0 in
  List.iter (fun (r, _) -> count.(r) <- count.(r) + 1) entries;
  let row_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + count.(i)
  done;
  let fill = Array.copy row_ptr in
  let raw = Array.make (List.length entries) 0 in
  List.iter
    (fun (r, c) ->
      raw.(fill.(r)) <- c;
      fill.(r) <- fill.(r) + 1)
    entries;
  (* Sort and deduplicate each row. *)
  let dedup_ci = Array.make (Array.length raw) 0 in
  let dedup_ptr = Array.make (rows + 1) 0 in
  let k = ref 0 in
  for i = 0 to rows - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    let seg = Array.sub raw lo (hi - lo) in
    Array.sort compare seg;
    Array.iteri
      (fun s c ->
        if s = 0 || c <> seg.(s - 1) then begin
          dedup_ci.(!k) <- c;
          incr k
        end)
      seg;
    dedup_ptr.(i + 1) <- !k
  done;
  { rows; cols; row_ptr = dedup_ptr; col_ind = Array.sub dedup_ci 0 !k }

let pattern_of_dense ?(tol = 0.) (m : Linalg.mat) =
  let rows = Array.length m in
  let cols = if rows = 0 then 0 else Array.length m.(0) in
  let entries = ref [] in
  for i = rows - 1 downto 0 do
    for j = cols - 1 downto 0 do
      if Float.abs m.(i).(j) > tol then entries := (i, j) :: !entries
    done
  done;
  pattern_of_entries ~rows ~cols !entries

(* CSR slot of (i, j), or -1: binary search inside row i. *)
let index p i j =
  let lo = ref p.row_ptr.(i) and hi = ref (p.row_ptr.(i + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = p.col_ind.(mid) in
    if c = j then found := mid else if c < j then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem p i j = index p i j >= 0

type t = { pat : pattern; v : float array }

let create pat = { pat; v = Array.make (nnz pat) 0. }

let of_dense ?tol (m : Linalg.mat) =
  let pat = pattern_of_dense ?tol m in
  let a = create pat in
  for i = 0 to pat.rows - 1 do
    for k = pat.row_ptr.(i) to pat.row_ptr.(i + 1) - 1 do
      a.v.(k) <- m.(i).(pat.col_ind.(k))
    done
  done;
  a

let to_dense a =
  let m = Linalg.make a.pat.rows a.pat.cols 0. in
  for i = 0 to a.pat.rows - 1 do
    for k = a.pat.row_ptr.(i) to a.pat.row_ptr.(i + 1) - 1 do
      m.(i).(a.pat.col_ind.(k)) <- a.v.(k)
    done
  done;
  m

let get a i j =
  let k = index a.pat i j in
  if k < 0 then 0. else a.v.(k)

let mat_vec a x =
  let y = Array.make a.pat.rows 0. in
  for i = 0 to a.pat.rows - 1 do
    let acc = ref 0. in
    for k = a.pat.row_ptr.(i) to a.pat.row_ptr.(i + 1) - 1 do
      acc := !acc +. (a.v.(k) *. x.(a.pat.col_ind.(k)))
    done;
    y.(i) <- !acc
  done;
  y

(* Transpose structure: for each column, the rows containing it, and
   the CSR slot of each of those entries. *)
let transpose_pattern p =
  let count = Array.make p.cols 0 in
  Array.iter (fun c -> count.(c) <- count.(c) + 1) p.col_ind;
  let col_ptr = Array.make (p.cols + 1) 0 in
  for j = 0 to p.cols - 1 do
    col_ptr.(j + 1) <- col_ptr.(j) + count.(j)
  done;
  let fill = Array.copy col_ptr in
  let row_ind = Array.make (nnz p) 0 in
  let slot = Array.make (nnz p) 0 in
  for i = 0 to p.rows - 1 do
    for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
      let j = p.col_ind.(k) in
      row_ind.(fill.(j)) <- i;
      slot.(fill.(j)) <- k;
      fill.(j) <- fill.(j) + 1
    done
  done;
  (col_ptr, row_ind, slot)

(* ------------------------------------------------------------------ *)
(* Distance-2 column coloring                                          *)
(* ------------------------------------------------------------------ *)

type coloring = { ncolors : int; color : int array; groups : int array array }

let color_columns p =
  let nc = p.cols in
  let col_ptr, row_ind, _ = transpose_pattern p in
  let color = Array.make nc (-1) in
  (* forbid.(c) = j marks color c as used by an earlier column sharing a
     row with column j. *)
  let forbid = Array.make (nc + 1) (-1) in
  let ncolors = ref 0 in
  for j = 0 to nc - 1 do
    for t = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      let i = row_ind.(t) in
      for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
        let j' = p.col_ind.(k) in
        if color.(j') >= 0 then forbid.(color.(j')) <- j
      done
    done;
    let c = ref 0 in
    while forbid.(!c) = j do
      incr c
    done;
    color.(j) <- !c;
    if !c + 1 > !ncolors then ncolors := !c + 1
  done;
  (* Empty patterns still need one group so fd has a well-defined shape. *)
  let ng = max 1 !ncolors in
  let sizes = Array.make ng 0 in
  Array.iter (fun c -> if c >= 0 then sizes.(c) <- sizes.(c) + 1) color;
  let groups = Array.map (fun s -> Array.make s 0) sizes in
  let fill = Array.make ng 0 in
  Array.iteri
    (fun j c ->
      if c >= 0 then begin
        groups.(c).(fill.(c)) <- j;
        fill.(c) <- fill.(c) + 1
      end)
    color;
  { ncolors = ng; color; groups }

(* ------------------------------------------------------------------ *)
(* Colored finite differences                                          *)
(* ------------------------------------------------------------------ *)

type fd_ws = {
  fpat : pattern;
  coloring : coloring;
  ypert : float array array; (* per group: y with that group's columns bumped *)
  fpert : float array array; (* per group: f(t, ypert) *)
  hstep : float array; (* per column: the step actually taken *)
}

let make_fd_ws p coloring =
  if p.rows <> p.cols then invalid_arg "Sparse.make_fd_ws: square patterns only";
  let ng = coloring.ncolors in
  {
    fpat = p;
    coloring;
    ypert = Array.init ng (fun _ -> Array.make p.cols 0.);
    fpert = Array.init ng (fun _ -> Array.make p.rows 0.);
    hstep = Array.make p.cols 0.;
  }

let fd_groups ws = ws.coloring.ncolors
let fd_points ws = ws.ypert
let fd_values ws = ws.fpert

let fd_prepare ?(eps = 1e-8) ws ~y =
  let ng = ws.coloring.ncolors in
  for g = 0 to ng - 1 do
    let yp = ws.ypert.(g) in
    Array.blit y 0 yp 0 (Array.length y);
    Array.iter
      (fun j ->
        (* Same step rule as Jacobian.numeric, column by column, so the
           perturbed points are bitwise the ones the dense path uses. *)
        let h = eps *. Float.max 1. (Float.abs y.(j)) in
        ws.hstep.(j) <- h;
        yp.(j) <- y.(j) +. h)
      ws.coloring.groups.(g)
  done

let fd_scatter ws ~f0 ~jac =
  if jac.pat != ws.fpat && jac.pat <> ws.fpat then
    invalid_arg "Sparse.fd_scatter: jacobian pattern mismatch";
  let p = ws.fpat in
  for i = 0 to p.rows - 1 do
    for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
      let j = p.col_ind.(k) in
      let g = ws.coloring.color.(j) in
      (* Row i reads at most one perturbed column in group g (distance-2
         property), so fpert.(g).(i) equals the single-column perturbed
         value bitwise. *)
      jac.v.(k) <- (ws.fpert.(g).(i) -. f0.(i)) /. ws.hstep.(j)
    done
  done

(* ------------------------------------------------------------------ *)
(* Left-looking sparse LU, bitwise-compatible with Linalg.lu_factor    *)
(* ------------------------------------------------------------------ *)

type lu = {
  n : int;
  (* Strictly lower triangle, CSR over *pivot positions*, columns
     ascending within each row; unit diagonal implied. *)
  l_rp : int array;
  l_ci : int array;
  l_v : float array;
  (* Strict upper triangle, CSR over pivot positions, columns ascending. *)
  u_rp : int array;
  u_ci : int array;
  u_v : float array;
  u_diag : float array;
  piv : int array; (* original row index at each pivot position *)
}

(* The symbolic trace of one full factorisation: given the input
   pattern and the chosen pivot rows, everything a column's numeric work
   touches is fixed, so a later matrix of the same pattern can replay
   the arithmetic without the reach DFS, the sort or the CSR build.
   Per column [j], the spans [*_ptr.(j) .. *_ptr.(j+1) - 1] hold:
   - [reach_rows]: the rows the column touches (cleared before the
     scatter);
   - [up_pos]: the pivotal positions whose L columns update it, in the
     ascending order the dense elimination applies them — also the U
     entries of column [j], written to [u_dest];
   - [l_row]: the original rows of L column [j] in emission order, with
     their CSR slots [l_dest] and the column-ordered copy [lval] that
     later columns' updates read;
   - [cand_row], [cand_pos]: the pivot candidates in search order and
     their dense positions at step [j];
   - [diag_row], [diag_in]: the row at dense position [j] before the
     swap, and whether it is in the reach. *)
type trace = {
  tpat : pattern;
  tlu : lu; (* the value arrays are rewritten by every replay *)
  col_ptr : int array;
  row_ind : int array;
  csr_slot : int array; (* CSR slot of each CSC entry *)
  reach_ptr : int array;
  reach_rows : int array;
  u_cp : int array;
  up_pos : int array;
  u_dest : int array;
  l_cp : int array;
  l_row : int array;
  l_dest : int array;
  lval : float array;
  cand_ptr : int array;
  cand_row : int array;
  cand_pos : int array;
  diag_row : int array;
  diag_in : bool array;
  x : float array; (* dense scatter column, by original row *)
}

(* Growable scratch arrays for the factor's L/U columns. *)
type buf = { mutable data : float array; mutable idx : int array; mutable len : int }

let buf_make n = { data = Array.make (max 16 n) 0.; idx = Array.make (max 16 n) 0; len = 0 }

let buf_push b i x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d;
    let ix = Array.make (2 * b.len) 0 in
    Array.blit b.idx 0 ix 0 b.len;
    b.idx <- ix
  end;
  b.data.(b.len) <- x;
  b.idx.(b.len) <- i;
  b.len <- b.len + 1

type ibuf = { mutable a : int array; mutable alen : int }

let ibuf_make n = { a = Array.make (max 16 n) 0; alen = 0 }

let ibuf_push b v =
  if b.alen = Array.length b.a then begin
    let a = Array.make (2 * b.alen) 0 in
    Array.blit b.a 0 a 0 b.alen;
    b.a <- a
  end;
  b.a.(b.alen) <- v;
  b.alen <- b.alen + 1

let ibuf_contents b = Array.sub b.a 0 b.alen

(* The full factorisation, recording its trace. *)
let factor_traced (a : t) =
  let p = a.pat in
  if p.rows <> p.cols then invalid_arg "Sparse.lu_factor: not square";
  let n = p.rows in
  let col_ptr, row_ind, csr_slot = transpose_pattern p in
  (* pos.(r): current dense position of original row r; rowat is its
     inverse.  Dense partial pivoting never moves a row once it holds a
     pivot position < j, so "r is pivotal" iff pos.(r) < j. *)
  let pos = Array.init n Fun.id in
  let rowat = Array.init n Fun.id in
  let x = Array.make n 0. in
  let mark = Array.make n (-1) in
  let reach = Array.make n 0 in
  let stack = Array.make n 0 in
  let child = Array.make n 0 in
  (* L and U columns as they are produced, one span per pivot step.
     L rows are recorded as *original* indices (their final position is
     unknown until the factorisation ends); U rows are pivot positions. *)
  let lbuf = buf_make (4 * n) and ubuf = buf_make (4 * n) in
  let l_cp = Array.make (n + 1) 0 and u_cp = Array.make (n + 1) 0 in
  let u_diag = Array.make n 0. in
  let piv_ord = Array.make n 0 in
  let reach_buf = ibuf_make (4 * n) and reach_ptr = Array.make (n + 1) 0 in
  let cand_row = ibuf_make (4 * n) and cand_pos = ibuf_make (4 * n) in
  let cand_ptr = Array.make (n + 1) 0 in
  let diag_row = Array.make n 0 and diag_in = Array.make n false in
  (* Scratch for sorting the pivotal part of the reach set. *)
  let pivotal = Array.make n 0 in
  for j = 0 to n - 1 do
    (* Reach of the column pattern through the L graph. *)
    let nreach = ref 0 in
    for t = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      let r0 = row_ind.(t) in
      if mark.(r0) <> j then begin
        (* Iterative DFS; children of a pivotal node p are the original
           rows of L column pos.(p). *)
        let sp = ref 0 in
        stack.(0) <- r0;
        child.(0) <- 0;
        mark.(r0) <- j;
        x.(r0) <- 0.;
        reach.(!nreach) <- r0;
        incr nreach;
        while !sp >= 0 do
          let r = stack.(!sp) in
          if pos.(r) < j then begin
            let cstart = l_cp.(pos.(r)) and cstop = l_cp.(pos.(r) + 1) in
            let k = ref (cstart + child.(!sp)) in
            while !k < cstop && mark.(lbuf.idx.(!k)) = j do
              incr k
            done;
            if !k < cstop then begin
              child.(!sp) <- !k - cstart + 1;
              let r' = lbuf.idx.(!k) in
              mark.(r') <- j;
              x.(r') <- 0.;
              reach.(!nreach) <- r';
              incr nreach;
              incr sp;
              stack.(!sp) <- r';
              child.(!sp) <- 0
            end
            else decr sp
          end
          else decr sp
        done
      end
    done;
    for t = 0 to !nreach - 1 do
      ibuf_push reach_buf reach.(t)
    done;
    reach_ptr.(j + 1) <- reach_buf.alen;
    (* Scatter A(:, j). *)
    for t = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      x.(row_ind.(t)) <- a.v.(csr_slot.(t))
    done;
    (* Apply updates from pivotal reach nodes in ascending pivot order —
       the order the dense right-looking elimination applies them. *)
    let npiv = ref 0 in
    for t = 0 to !nreach - 1 do
      let r = reach.(t) in
      if pos.(r) < j then begin
        pivotal.(!npiv) <- pos.(r);
        incr npiv
      end
    done;
    let piv_part = Array.sub pivotal 0 !npiv in
    Array.sort compare piv_part;
    Array.iter
      (fun pp ->
        let xi = x.(rowat.(pp)) in
        for k = l_cp.(pp) to l_cp.(pp + 1) - 1 do
          let r = lbuf.idx.(k) in
          x.(r) <- x.(r) -. (lbuf.data.(k) *. xi)
        done)
      piv_part;
    (* Pivot search over non-pivotal reach entries; everything outside
       the reach is an exact zero in the dense path.  Dense scans
       positions j..n-1 taking the first strictly-larger magnitude, so
       the winner is the smallest position attaining the maximum, seeded
       by the current diagonal position. *)
    let dr = rowat.(j) in
    diag_row.(j) <- dr;
    diag_in.(j) <- mark.(dr) = j;
    let best_row = ref dr in
    let best_val = ref (if mark.(dr) = j then Float.abs x.(dr) else 0.) in
    for t = 0 to !nreach - 1 do
      let r = reach.(t) in
      if pos.(r) > j then begin
        ibuf_push cand_row r;
        ibuf_push cand_pos pos.(r);
        let v = Float.abs x.(r) in
        if v > !best_val || (v = !best_val && pos.(r) < pos.(!best_row)) then begin
          best_val := v;
          best_row := r
        end
      end
    done;
    cand_ptr.(j + 1) <- cand_row.alen;
    let pr = !best_row in
    let pivot = if mark.(pr) = j then x.(pr) else 0. in
    if pivot = 0. then raise (Linalg.Singular j);
    (* Record the swap exactly as the dense code performs it. *)
    if pr <> dr then begin
      let pq = pos.(pr) in
      pos.(pr) <- j;
      pos.(dr) <- pq;
      rowat.(j) <- pr;
      rowat.(pq) <- dr
    end;
    (* Emit U column j (pivotal rows ascending, then the diagonal) and
       L column j (multipliers, original row indices). *)
    Array.iter (fun pp -> buf_push ubuf pp x.(rowat.(pp))) piv_part;
    u_diag.(j) <- pivot;
    for t = 0 to !nreach - 1 do
      let r = reach.(t) in
      if pos.(r) > j then buf_push lbuf r (x.(r) /. pivot)
    done;
    l_cp.(j + 1) <- lbuf.len;
    u_cp.(j + 1) <- ubuf.len;
    piv_ord.(j) <- rowat.(j)
  done;
  (* Convert the column spans to CSR over final pivot positions.  Rows
     fill in ascending column order because columns are visited in
     order, so no per-row sort is needed. *)
  let l_count = Array.make n 0 in
  for k = 0 to lbuf.len - 1 do
    let q = pos.(lbuf.idx.(k)) in
    l_count.(q) <- l_count.(q) + 1
  done;
  let l_rp = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    l_rp.(i + 1) <- l_rp.(i) + l_count.(i)
  done;
  let l_ci = Array.make lbuf.len 0 and l_v = Array.make lbuf.len 0. in
  let l_dest = Array.make lbuf.len 0 in
  let fill = Array.copy l_rp in
  for c = 0 to n - 1 do
    for k = l_cp.(c) to l_cp.(c + 1) - 1 do
      let q = pos.(lbuf.idx.(k)) in
      l_ci.(fill.(q)) <- c;
      l_v.(fill.(q)) <- lbuf.data.(k);
      l_dest.(k) <- fill.(q);
      fill.(q) <- fill.(q) + 1
    done
  done;
  let u_count = Array.make n 0 in
  for k = 0 to ubuf.len - 1 do
    u_count.(ubuf.idx.(k)) <- u_count.(ubuf.idx.(k)) + 1
  done;
  let u_rp = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    u_rp.(i + 1) <- u_rp.(i) + u_count.(i)
  done;
  let u_ci = Array.make ubuf.len 0 and u_v = Array.make ubuf.len 0. in
  let u_dest = Array.make ubuf.len 0 in
  let ufill = Array.copy u_rp in
  for c = 0 to n - 1 do
    for k = u_cp.(c) to u_cp.(c + 1) - 1 do
      let q = ubuf.idx.(k) in
      u_ci.(ufill.(q)) <- c;
      u_v.(ufill.(q)) <- ubuf.data.(k);
      u_dest.(k) <- ufill.(q);
      ufill.(q) <- ufill.(q) + 1
    done
  done;
  {
    tpat = p;
    tlu = { n; l_rp; l_ci; l_v; u_rp; u_ci; u_v; u_diag; piv = piv_ord };
    col_ptr;
    row_ind;
    csr_slot;
    reach_ptr;
    reach_rows = ibuf_contents reach_buf;
    u_cp;
    up_pos = Array.sub ubuf.idx 0 ubuf.len;
    u_dest;
    l_cp;
    l_row = Array.sub lbuf.idx 0 lbuf.len;
    l_dest;
    lval = Array.sub lbuf.data 0 lbuf.len;
    cand_ptr;
    cand_row = ibuf_contents cand_row;
    cand_pos = ibuf_contents cand_pos;
    diag_row;
    diag_in;
    x;
  }

let lu_factor a = (factor_traced a).tlu

(* Numeric replay of [tr] on new values of its pattern, column by
   column with the full factorisation's operations in its order.  Each
   column's pivot search is rerun on the new values; [false] as soon as
   it would choose another row than the trace (or a zero pivot), leaving
   the trace's value arrays partly rewritten. *)
let replay tr (a : t) =
  let lu = tr.tlu in
  let x = tr.x and av = a.v and piv = lu.piv in
  let reach_ptr = tr.reach_ptr and reach_rows = tr.reach_rows in
  let col_ptr = tr.col_ptr and row_ind = tr.row_ind and csr_slot = tr.csr_slot in
  let u_cp = tr.u_cp and up_pos = tr.up_pos and u_dest = tr.u_dest in
  let l_cp = tr.l_cp and l_row = tr.l_row and l_dest = tr.l_dest in
  let lval = tr.lval and l_v = lu.l_v and u_v = lu.u_v in
  let cand_ptr = tr.cand_ptr and cand_row = tr.cand_row and cand_pos = tr.cand_pos in
  let j = ref 0 in
  let same = ref true in
  while !same && !j < lu.n do
    let j' = !j in
    for t = reach_ptr.(j') to reach_ptr.(j' + 1) - 1 do
      x.(reach_rows.(t)) <- 0.
    done;
    for t = col_ptr.(j') to col_ptr.(j' + 1) - 1 do
      x.(row_ind.(t)) <- av.(csr_slot.(t))
    done;
    for s = u_cp.(j') to u_cp.(j' + 1) - 1 do
      let pp = up_pos.(s) in
      let xi = x.(piv.(pp)) in
      for k = l_cp.(pp) to l_cp.(pp + 1) - 1 do
        let r = l_row.(k) in
        x.(r) <- x.(r) -. (lval.(k) *. xi)
      done
    done;
    let dr = tr.diag_row.(j') and din = tr.diag_in.(j') in
    let best_row = ref dr and best_pos = ref j' in
    let best_val = ref (if din then Float.abs x.(dr) else 0.) in
    for c = cand_ptr.(j') to cand_ptr.(j' + 1) - 1 do
      let r = cand_row.(c) and q = cand_pos.(c) in
      let v = Float.abs x.(r) in
      if v > !best_val || (v = !best_val && q < !best_pos) then begin
        best_val := v;
        best_row := r;
        best_pos := q
      end
    done;
    let pr = !best_row in
    let pivot = if pr = dr && not din then 0. else x.(pr) in
    if pr <> piv.(j') || pivot = 0. then same := false
    else begin
      for s = u_cp.(j') to u_cp.(j' + 1) - 1 do
        u_v.(u_dest.(s)) <- x.(piv.(up_pos.(s)))
      done;
      lu.u_diag.(j') <- pivot;
      for k = l_cp.(j') to l_cp.(j' + 1) - 1 do
        let m = x.(l_row.(k)) /. pivot in
        lval.(k) <- m;
        l_v.(l_dest.(k)) <- m
      done;
      incr j
    end
  done;
  !same

type refactor = {
  mutable trace : trace option;
  mutable replays : int;
  mutable full : int;
}

let refactor_create () = { trace = None; replays = 0; full = 0 }
let refactor_replays r = r.replays
let refactor_full r = r.full

let lu_refactor r (a : t) =
  match r.trace with
  | Some tr when (tr.tpat == a.pat || tr.tpat = a.pat) && replay tr a ->
      r.replays <- r.replays + 1;
      tr.tlu
  | _ ->
      (* No trace yet, another pattern, or the pivot sequence changed:
         a full factorisation, whose trace the next call replays.  A
         singular matrix raises here with the dense step index. *)
      r.full <- r.full + 1;
      let tr = factor_traced a in
      r.trace <- Some tr;
      tr.tlu

let lu_nnz lu = lu.n + Array.length lu.l_v + Array.length lu.u_v

let lu_solve_into lu b x =
  let n = lu.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Sparse.lu_solve: dimension mismatch";
  if b == x then invalid_arg "Sparse.lu_solve_into: b and x alias";
  for i = 0 to n - 1 do
    x.(i) <- b.(lu.piv.(i))
  done;
  (* Row-oriented substitutions: each row accumulates in ascending
     column order, exactly like the dense inner loops. *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for k = lu.l_rp.(i) to lu.l_rp.(i + 1) - 1 do
      acc := !acc -. (lu.l_v.(k) *. x.(lu.l_ci.(k)))
    done;
    x.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for k = lu.u_rp.(i) to lu.u_rp.(i + 1) - 1 do
      acc := !acc -. (lu.u_v.(k) *. x.(lu.u_ci.(k)))
    done;
    x.(i) <- !acc /. lu.u_diag.(i)
  done

let lu_solve lu b =
  let x = Array.make lu.n 0. in
  lu_solve_into lu b x;
  x

(* ------------------------------------------------------------------ *)
(* Fill-reducing ordering (reverse Cuthill–McKee)                      *)
(* ------------------------------------------------------------------ *)

let rcm_ordering p =
  if p.rows <> p.cols then invalid_arg "Sparse.rcm_ordering: not square";
  let n = p.rows in
  (* Symmetrized adjacency: i ~ j iff (i,j) or (j,i) in the pattern. *)
  let sym = Hashtbl.create (4 * nnz p) in
  let adj = Array.make n [] in
  let add i j =
    if i <> j && not (Hashtbl.mem sym (i, j)) then begin
      Hashtbl.replace sym (i, j) ();
      adj.(i) <- j :: adj.(i)
    end
  in
  for i = 0 to n - 1 do
    for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
      let j = p.col_ind.(k) in
      add i j;
      add j i
    done
  done;
  let deg = Array.map List.length adj in
  Array.iteri
    (fun i l -> adj.(i) <- List.sort (fun a b -> compare (deg.(a), a) (deg.(b), b)) l)
    adj;
  let order = Array.make n 0 in
  let visited = Array.make n false in
  let count = ref 0 in
  let q = Queue.create () in
  let bfs_from s =
    visited.(s) <- true;
    Queue.push s q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      order.(!count) <- v;
      incr count;
      List.iter
        (fun w ->
          if not visited.(w) then begin
            visited.(w) <- true;
            Queue.push w q
          end)
        adj.(v)
    done
  in
  (* Start each component from a minimum-degree vertex. *)
  let by_deg = Array.init n Fun.id in
  Array.sort (fun a b -> compare (deg.(a), a) (deg.(b), b)) by_deg;
  Array.iter (fun s -> if not visited.(s) then bfs_from s) by_deg;
  (* Reverse for RCM. *)
  Array.init n (fun k -> order.(n - 1 - k))

let permute_symmetric (a : t) perm =
  let p = a.pat in
  if p.rows <> p.cols then invalid_arg "Sparse.permute_symmetric";
  let n = p.rows in
  if Array.length perm <> n then invalid_arg "Sparse.permute_symmetric: perm";
  (* inv.(old) = new *)
  let inv = Array.make n (-1) in
  Array.iteri (fun k old -> inv.(old) <- k) perm;
  Array.iter (fun v -> if v < 0 then invalid_arg "Sparse.permute_symmetric: not a permutation") inv;
  let entries = ref [] in
  for i = 0 to n - 1 do
    for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
      entries := (inv.(i), inv.(p.col_ind.(k))) :: !entries
    done
  done;
  let pat = pattern_of_entries ~rows:n ~cols:n !entries in
  let b = create pat in
  for i = 0 to n - 1 do
    for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
      let s = index pat inv.(i) inv.(p.col_ind.(k)) in
      b.v.(s) <- a.v.(k)
    done
  done;
  b

let solve_with_ordering (a : t) ~perm b =
  let n = a.pat.rows in
  let inv = Array.make n 0 in
  Array.iteri (fun k old -> inv.(old) <- k) perm;
  let pa = permute_symmetric a perm in
  let lu = lu_factor pa in
  let pb = Array.init n (fun k -> b.(perm.(k))) in
  let px = lu_solve lu pb in
  Array.init n (fun i -> px.(inv.(i)))

(* ------------------------------------------------------------------ *)
(* Newton iteration matrix  M = alpha*I - beta*J                       *)
(* ------------------------------------------------------------------ *)

type newton = {
  m : t;
  diag_idx : int array; (* CSR slot of each diagonal entry of m *)
  scatter : int array; (* CSR slot in m for each CSR slot of the J pattern *)
}

(* M's pattern is J's with the diagonal merged in: each row's columns
   are already ascending, so the diagonal is inserted in one pass and
   every J slot learns its M slot on the way. *)
let make_newton jpat =
  if jpat.rows <> jpat.cols then invalid_arg "Sparse.make_newton: not square";
  let n = jpat.rows in
  let row_ptr = Array.make (n + 1) 0 in
  let col_ind = Array.make (nnz jpat + n) 0 in
  let diag_idx = Array.make n 0 in
  let scatter = Array.make (nnz jpat) 0 in
  let s = ref 0 in
  let push c =
    col_ind.(!s) <- c;
    incr s
  in
  for i = 0 to n - 1 do
    let diag = ref false in
    for k = jpat.row_ptr.(i) to jpat.row_ptr.(i + 1) - 1 do
      let c = jpat.col_ind.(k) in
      if (not !diag) && c >= i then begin
        diag := true;
        diag_idx.(i) <- !s;
        if c > i then push i
      end;
      scatter.(k) <- !s;
      push c
    done;
    if not !diag then begin
      diag_idx.(i) <- !s;
      push i
    end;
    row_ptr.(i + 1) <- !s
  done;
  let mpat = { rows = n; cols = n; row_ptr; col_ind = Array.sub col_ind 0 !s } in
  { m = create mpat; diag_idx; scatter }

let newton_matrix nw = nw.m

let newton_assemble nw ~(jac : t) ~alpha ~beta =
  if Array.length nw.scatter <> Array.length jac.v then
    invalid_arg "Sparse.newton_assemble: jacobian pattern mismatch";
  (* Dense builds every entry as [(if diag then alpha else 0.) -. beta*J];
     replaying the same two operations per structural entry keeps the
     matrix bitwise equal to the dense one. *)
  Array.fill nw.m.v 0 (Array.length nw.m.v) 0.;
  Array.iter (fun k -> nw.m.v.(k) <- alpha) nw.diag_idx;
  let nj = Array.length jac.v in
  for k = 0 to nj - 1 do
    let s = nw.scatter.(k) in
    nw.m.v.(s) <- nw.m.v.(s) -. (beta *. jac.v.(k))
  done;
  (* Diagonal slots with no J entry still need the dense no-op
     [alpha -. beta *. 0.] replayed: it is bitwise [alpha], so nothing
     to do. *)
  ()
