type sense = Le | Ge | Eq

type row = {
  coefs : (int * float) list;
  sense : sense;
  rhs : float;
}

type status = Optimal | Infeasible | Unbounded | Pivot_limit

type solution = { status : status; objective : float; x : float array; iterations : int }

let eps = 1e-9

type var_status = Basic | At_lower | At_upper

type warm = {
  w_n : int;
  w_m : int;
  w_basis : int array;
  w_status : var_status array;
}

(* Working state.  [tab] is B⁻¹·A kept explicitly (dense, m × total);
   [xb] holds the current values of the basic variables; [z] is the
   reduced-cost row of the current phase, updated by the same pivots. *)
type state = {
  m : int;
  total : int;            (* structural + slacks + artificials *)
  n_real : int;           (* structural + slacks: artificials excluded from entering *)
  tab : float array array;
  basis : int array;
  xb : float array;
  status : var_status array;
  lo : float array;
  hi : float array;
  z : float array;
  mutable iters : int;
}

let bound_value st j =
  match st.status.(j) with
  | At_lower -> st.lo.(j)
  | At_upper -> st.hi.(j)
  | Basic -> invalid_arg "Boxlp: bound_value of basic variable"

let pivot st ~row ~col =
  let t = st.tab in
  let piv = t.(row).(col) in
  let r = t.(row) in
  for j = 0 to st.total - 1 do
    r.(j) <- r.(j) /. piv
  done;
  for i = 0 to st.m - 1 do
    if i <> row then begin
      let f = t.(i).(col) in
      if f <> 0.0 then begin
        let ri = t.(i) in
        for j = 0 to st.total - 1 do
          ri.(j) <- ri.(j) -. (f *. r.(j))
        done
      end
    end
  done;
  let f = st.z.(col) in
  if f <> 0.0 then
    for j = 0 to st.total - 1 do
      st.z.(j) <- st.z.(j) -. (f *. r.(j))
    done

(* One simplex phase on the current [z] row.  Entering variables are
   restricted to indices < [allowed] (phase 2 locks artificials out).
   Bland's rule: smallest eligible entering index; leaving row with the
   tightest ratio, ties by smallest basis index. *)
let run_phase st ~allowed ~max_iters =
  let rec entering j =
    if j >= allowed then None
    else
      match st.status.(j) with
      | At_lower when st.z.(j) < -.eps -> Some (j, 1.0)
      | At_upper when st.z.(j) > eps -> Some (j, -1.0)
      | At_lower | At_upper | Basic -> entering (j + 1)
  in
  let rec loop () =
    st.iters <- st.iters + 1;
    if st.iters > max_iters then `Limit
    else match entering 0 with
    | None -> `Optimal
    | Some (j, dir) ->
      (* The entering variable moves by t ≥ 0 in direction [dir]; basic
         variable i moves by t · delta_i. *)
      let span = st.hi.(j) -. st.lo.(j) in
      let best = ref None in (* (t, row) *)
      for i = 0 to st.m - 1 do
        let delta = -.dir *. st.tab.(i).(j) in
        let bi = st.basis.(i) in
        let limit =
          if delta > eps then (st.hi.(bi) -. st.xb.(i)) /. delta
          else if delta < -.eps then (st.lo.(bi) -. st.xb.(i)) /. delta
          else infinity
        in
        if limit < infinity then begin
          let limit = Float.max 0.0 limit in
          match !best with
          | None -> best := Some (limit, i)
          | Some (t, r) ->
            if limit < t -. eps || (limit < t +. eps && bi < st.basis.(r)) then
              best := Some (limit, i)
        end
      done;
      let t_rows, row = match !best with Some (t, r) -> (t, Some r) | None -> (infinity, None) in
      let t = Float.min span t_rows in
      if t = infinity then `Unbounded
      else if t >= span -. eps && span <= t_rows then begin
        (* bound flip: no basis change *)
        for i = 0 to st.m - 1 do
          st.xb.(i) <- st.xb.(i) +. (t *. -.dir *. st.tab.(i).(j))
        done;
        st.status.(j) <- (match st.status.(j) with At_lower -> At_upper | At_upper -> At_lower | Basic -> Basic);
        loop ()
      end
      else begin
        match row with
        | None -> `Unbounded (* unreachable: t finite implies a limiting row *)
        | Some r ->
          let entering_value = bound_value st j +. (dir *. t) in
          let leaving = st.basis.(r) in
          (* leaving variable stops at whichever of its bounds it hit *)
          let delta_r = -.dir *. st.tab.(r).(j) in
          let leaving_status = if delta_r > 0.0 then At_upper else At_lower in
          for i = 0 to st.m - 1 do
            if i <> r then st.xb.(i) <- st.xb.(i) +. (t *. -.dir *. st.tab.(i).(j))
          done;
          pivot st ~row:r ~col:j;
          st.basis.(r) <- j;
          st.xb.(r) <- entering_value;
          st.status.(j) <- Basic;
          st.status.(leaving) <- leaving_status;
          loop ()
      end
  in
  loop ()

(* Reduced-cost row for objective [c] (length total) under the current
   basis: z = c - c_B^T · tab. *)
let set_costs st c =
  Array.blit c 0 st.z 0 st.total;
  for i = 0 to st.m - 1 do
    let cb = c.(st.basis.(i)) in
    if cb <> 0.0 then begin
      let row = st.tab.(i) in
      for j = 0 to st.total - 1 do
        st.z.(j) <- st.z.(j) -. (cb *. row.(j))
      done
    end
  done

(* Read the structural solution off a (primal-optimal) state. *)
let extract_solution st ~c ~n =
  let x = Array.make n 0.0 in
  for j = 0 to n - 1 do
    x.(j) <-
      (match st.status.(j) with
       | At_lower -> st.lo.(j)
       | At_upper -> st.hi.(j)
       | Basic -> 0.0)
  done;
  for i = 0 to st.m - 1 do
    if st.basis.(i) < n then x.(st.basis.(i)) <- st.xb.(i)
  done;
  let objective = ref 0.0 in
  for j = 0 to n - 1 do
    objective := !objective +. (c.(j) *. x.(j))
  done;
  { status = Optimal; objective = !objective; x; iterations = st.iters }

(* A solved tableau kept alive so further objectives over the same
   polytope restart from the current basis. *)
type session = { st : state; n : int; smax_iters : int }

(* Build the tableau over the box and rows, then run phase 1.  Nothing
   here depends on the objective, so the resulting state is a valid
   start for phase 2 under any cost vector. *)
let phase_one ~max_iters ~lo ~hi ~rows =
  let n = Array.length lo in
  if Array.length hi <> n then invalid_arg "Boxlp.solve: bound array length mismatch";
  Array.iteri
    (fun j l ->
      if l > hi.(j) then invalid_arg "Boxlp.solve: lo > hi";
      if l = neg_infinity && hi.(j) = infinity then
        invalid_arg "Boxlp.solve: free variable (need one finite bound)")
    lo;
  let rows = Array.of_list rows in
  let m = Array.length rows in
  Array.iter
    (fun r ->
      List.iter
        (fun (j, _) -> if j < 0 || j >= n then invalid_arg "Boxlp.solve: unknown variable")
        r.coefs)
    rows;
  (* columns: structural 0..n-1, slacks n..n+m-1, artificials appended *)
  let n_real = n + m in
  let total = n_real + m (* room for at most one artificial per row *) in
  let tab = Array.make_matrix m total 0.0 in
  let glo = Array.make total 0.0 and ghi = Array.make total 0.0 in
  Array.blit lo 0 glo 0 n;
  Array.blit hi 0 ghi 0 n;
  Array.iteri
    (fun i r ->
      List.iter (fun (j, v) -> tab.(i).(j) <- tab.(i).(j) +. v) r.coefs;
      tab.(i).(n + i) <- 1.0;
      let slo, shi =
        match r.sense with
        | Le -> (0.0, infinity)
        | Ge -> (neg_infinity, 0.0)
        | Eq -> (0.0, 0.0)
      in
      glo.(n + i) <- slo;
      ghi.(n + i) <- shi)
    rows;
  let status = Array.make total At_lower in
  (* structural variables start at a finite bound (prefer lower) *)
  for j = 0 to n - 1 do
    status.(j) <- (if glo.(j) > neg_infinity then At_lower else At_upper)
  done;
  let basis = Array.init m (fun i -> n + i) in
  let xb = Array.make m 0.0 in
  let st = { m; total; n_real; tab; basis; xb; status; lo = glo; hi = ghi; z = Array.make total 0.0; iters = 0 } in
  (* initial basic (slack) values: s_i = b_i - Σ A_ij · xval_j *)
  let structural_value j = match status.(j) with At_upper -> ghi.(j) | At_lower | Basic -> glo.(j) in
  let n_artificials = ref 0 in
  for i = 0 to m - 1 do
    let acc = ref rows.(i).rhs in
    List.iter (fun (j, v) -> acc := !acc -. (v *. structural_value j)) rows.(i).coefs;
    let s = !acc in
    let slo = glo.(n + i) and shi = ghi.(n + i) in
    if s >= slo -. eps && s <= shi +. eps then begin
      st.basis.(i) <- n + i;
      st.status.(n + i) <- Basic;
      st.xb.(i) <- s
    end
    else begin
      (* violated: park the slack at the violated bound and absorb the
         residual into a fresh artificial (always ≥ 0) *)
      let a = n_real + !n_artificials in
      incr n_artificials;
      let excess_high = s > shi in
      let bound = if excess_high then shi else slo in
      st.status.(n + i) <- (if excess_high then At_upper else At_lower);
      let sigma = if excess_high then 1.0 else -1.0 in
      (* The artificial's basis column must be +e_i: the artificial
         enters the equation with coefficient sigma, so scale the whole
         row by sigma to normalise it. *)
      for j = 0 to total - 1 do
        st.tab.(i).(j) <- sigma *. st.tab.(i).(j)
      done;
      st.tab.(i).(a) <- 1.0;
      glo.(a) <- 0.0;
      ghi.(a) <- infinity;
      st.basis.(i) <- a;
      st.status.(a) <- Basic;
      st.xb.(i) <- sigma *. (s -. bound)
    end
  done;
  (* hide unused artificial columns *)
  for a = n_real + !n_artificials to total - 1 do
    glo.(a) <- 0.0;
    ghi.(a) <- 0.0
  done;
  (* phase 1 *)
  let phase1 =
    if !n_artificials = 0 then `Feasible
    else begin
      let c1 = Array.make total 0.0 in
      for a = n_real to n_real + !n_artificials - 1 do
        c1.(a) <- 1.0
      done;
      set_costs st c1;
      match run_phase st ~allowed:n_real ~max_iters with
      | `Unbounded -> failwith "Boxlp: phase 1 unbounded (cannot happen)"
      | `Limit -> `Limit
      | `Optimal ->
        let resid = ref 0.0 in
        for i = 0 to m - 1 do
          if st.basis.(i) >= n_real then resid := !resid +. st.xb.(i)
        done;
        (* pin artificials so phase 2 cannot move them *)
        for a = n_real to total - 1 do
          glo.(a) <- 0.0;
          ghi.(a) <- 0.0
        done;
        if !resid > 1e-7 then `Infeasible else `Feasible
    end
  in
  (st, phase1)

let fail_result st ~n status =
  { status; objective = 0.0; x = Array.make n 0.0; iterations = st.iters }

(* Phase 2 for objective [c] from the state phase 1 left. *)
let phase_two st ~n ~c ~max_iters =
  let c2 = Array.make st.total 0.0 in
  Array.blit c 0 c2 0 n;
  set_costs st c2;
  match run_phase st ~allowed:st.n_real ~max_iters with
  | `Limit -> `Failed (fail_result st ~n Pivot_limit)
  | `Unbounded -> `Failed { (fail_result st ~n Unbounded) with objective = neg_infinity }
  | `Optimal -> `Optimal (extract_solution st ~c ~n)

let solve_session ?(max_iters = 100_000) ~c ~lo ~hi ~rows () =
  let n = Array.length c in
  if Array.length lo <> n then invalid_arg "Boxlp.solve: bound array length mismatch";
  let st, phase1 = phase_one ~max_iters ~lo ~hi ~rows in
  match phase1 with
  | `Limit -> (fail_result st ~n Pivot_limit, None)
  | `Infeasible -> (fail_result st ~n Infeasible, None)
  | `Feasible ->
    (match phase_two st ~n ~c ~max_iters with
     | `Failed sol -> (sol, None)
     | `Optimal sol -> (sol, Some { st; n; smax_iters = max_iters }))

let solve ?max_iters ~c ~lo ~hi ~rows () =
  fst (solve_session ?max_iters ~c ~lo ~hi ~rows ())

(* The phase-1 state is kept untouched; each objective restores it into
   one work state and runs phase 2 there, so every solve repeats the
   cold solve's pivots exactly while phase 1 runs once. *)
type polytope = {
  start : state;
  phase1 : [ `Feasible | `Infeasible | `Limit ];
  work : state;
  pn : int;
  pmax_iters : int;
}

let polytope ?(max_iters = 100_000) ~lo ~hi ~rows () =
  let start, phase1 = phase_one ~max_iters ~lo ~hi ~rows in
  let work =
    { start with
      tab = Array.map Array.copy start.tab;
      basis = Array.copy start.basis;
      xb = Array.copy start.xb;
      status = Array.copy start.status;
      z = Array.copy start.z }
  in
  { start; phase1; work; pn = Array.length lo; pmax_iters = max_iters }

let solve_over p ~c =
  if Array.length c <> p.pn then invalid_arg "Boxlp.solve_over: cost length mismatch";
  match p.phase1 with
  | `Limit -> fail_result p.start ~n:p.pn Pivot_limit
  | `Infeasible -> fail_result p.start ~n:p.pn Infeasible
  | `Feasible ->
    let st = p.start and w = p.work in
    (* phase 2 reads but never writes [lo]/[hi], and [set_costs]
       overwrites all of [z] *)
    Array.iteri (fun i row -> Array.blit row 0 w.tab.(i) 0 st.total) st.tab;
    Array.blit st.basis 0 w.basis 0 st.m;
    Array.blit st.xb 0 w.xb 0 st.m;
    Array.blit st.status 0 w.status 0 st.total;
    w.iters <- st.iters;
    (match phase_two w ~n:p.pn ~c ~max_iters:p.pmax_iters with
     | `Failed sol | `Optimal sol -> sol)

let reoptimize ?max_iters ses ~c =
  let st = ses.st in
  if Array.length c <> ses.n then
    invalid_arg "Boxlp.reoptimize: cost length mismatch";
  let budget = Option.value ~default:ses.smax_iters max_iters in
  let c2 = Array.make st.total 0.0 in
  Array.blit c 0 c2 0 ses.n;
  set_costs st c2;
  match run_phase st ~allowed:st.n_real ~max_iters:(st.iters + budget) with
  | `Limit ->
    { status = Pivot_limit; objective = 0.0; x = Array.make ses.n 0.0;
      iterations = st.iters }
  | `Unbounded ->
    { status = Unbounded; objective = neg_infinity; x = Array.make ses.n 0.0;
      iterations = st.iters }
  | `Optimal -> extract_solution st ~c ~n:ses.n

let basis_of_session ses =
  let st = ses.st in
  if Array.exists (fun b -> b >= st.n_real) st.basis then None
  else
    Some
      { w_n = ses.n;
        w_m = st.m;
        w_basis = Array.copy st.basis;
        w_status = Array.sub st.status 0 st.n_real }

type warm_result =
  | Warm_ok of { sol : solution; pivots : int; session : session option }
  | Warm_fallback of string

(* Bounded-variable dual simplex: while some basic variable violates a
   bound, drive it back to the violated bound, entering the column that
   preserves dual feasibility with the smallest reduced-cost ratio.
   Bland-flavoured tie-breaks plus the pivot cap bound the work; the cap
   (not an anti-cycling proof) is the termination guarantee here — on
   [`Cap] the caller cold-solves. *)
let dual_phase st ~pivot_cap =
  let rec loop pivots =
    if pivots >= pivot_cap then `Cap
    else begin
      (* leaving row: largest bound violation, ties by basis index *)
      let r = ref (-1) and worst = ref eps in
      for i = 0 to st.m - 1 do
        let bi = st.basis.(i) in
        let v =
          if st.xb.(i) < st.lo.(bi) then st.lo.(bi) -. st.xb.(i)
          else if st.xb.(i) > st.hi.(bi) then st.xb.(i) -. st.hi.(bi)
          else 0.0
        in
        if
          v > !worst +. eps
          || (v > !worst -. eps && !r >= 0 && v > eps && bi < st.basis.(!r))
        then begin
          worst := v;
          r := i
        end
      done;
      if !r < 0 then `Feasible pivots
      else begin
        let r = !r in
        let bi = st.basis.(r) in
        let below = st.xb.(r) < st.lo.(bi) in
        let target = if below then st.lo.(bi) else st.hi.(bi) in
        (* entering column: dual ratio test, min |z_j / a_rj| over columns
           that can move the leaving variable towards [target] without
           breaking reduced-cost signs *)
        let best = ref (-1) and best_ratio = ref infinity in
        for j = 0 to st.n_real - 1 do
          if st.status.(j) <> Basic && st.hi.(j) -. st.lo.(j) > eps then begin
            let a = st.tab.(r).(j) in
            let eligible =
              match st.status.(j), below with
              | At_lower, true -> a < -.eps
              | At_upper, true -> a > eps
              | At_lower, false -> a > eps
              | At_upper, false -> a < -.eps
              | Basic, _ -> false
            in
            if eligible then begin
              let ratio = Float.abs (st.z.(j) /. a) in
              if ratio < !best_ratio -. eps || (ratio < !best_ratio +. eps && !best >= 0 && j < !best)
              then begin
                best_ratio := ratio;
                best := j
              end
            end
          end
        done;
        if !best < 0 then `Dual_unbounded (* primal infeasible *)
        else begin
          let j = !best in
          let a = st.tab.(r).(j) in
          let d = (st.xb.(r) -. target) /. a in
          let entering_value = bound_value st j +. d in
          let col = Array.init st.m (fun i -> st.tab.(i).(j)) in
          st.iters <- st.iters + 1;
          pivot st ~row:r ~col:j;
          for i = 0 to st.m - 1 do
            if i <> r then st.xb.(i) <- st.xb.(i) -. (col.(i) *. d)
          done;
          st.basis.(r) <- j;
          st.xb.(r) <- entering_value;
          st.status.(j) <- Basic;
          st.status.(bi) <- (if below then At_lower else At_upper);
          loop (pivots + 1)
        end
      end
    end
  in
  loop 0

let solve_warm ?(max_iters = 100_000) ?(pivot_cap = 200) ~from ~c ~lo ~hi
    ~rows () =
  let n = Array.length c in
  let rows = Array.of_list rows in
  let m = Array.length rows in
  let shape_ok =
    from.w_n = n && from.w_m = m
    && Array.length lo = n
    && Array.length hi = n
    && Array.length from.w_basis = m
    && Array.length from.w_status = n + m
  in
  if not shape_ok then Warm_fallback "shape-mismatch"
  else begin
    let bad = ref false in
    Array.iteri
      (fun j l ->
        if l > hi.(j) || (l = neg_infinity && hi.(j) = infinity) then bad := true)
      lo;
    Array.iter
      (fun r ->
        List.iter (fun (j, _) -> if j < 0 || j >= n then bad := true) r.coefs)
      rows;
    Array.iter (fun b -> if b < 0 || b >= n + m then bad := true) from.w_basis;
    (* the status vector must mark exactly the stored basis as Basic —
       a nonbasic variable labelled Basic would silently drop its bound
       contribution from xb and corrupt the replay *)
    if not !bad then begin
      let basic_count = ref 0 in
      Array.iter
        (fun s -> if s = Basic then incr basic_count)
        from.w_status;
      if !basic_count <> m then bad := true;
      Array.iter
        (fun b -> if from.w_status.(b) <> Basic then bad := true)
        from.w_basis
    end;
    if !bad then Warm_fallback "invalid-problem"
    else begin
      let n_real = n + m in
      let total = n_real in
      let tab = Array.make_matrix m total 0.0 in
      let glo = Array.make total 0.0 and ghi = Array.make total 0.0 in
      Array.blit lo 0 glo 0 n;
      Array.blit hi 0 ghi 0 n;
      (* [bcol] tracks B⁻¹·b through the refactorization pivots; [xb] is
         then bcol minus the non-basic bound contributions. *)
      let bcol = Array.make m 0.0 in
      Array.iteri
        (fun i r ->
          List.iter (fun (j, v) -> tab.(i).(j) <- tab.(i).(j) +. v) r.coefs;
          tab.(i).(n + i) <- 1.0;
          let slo, shi =
            match r.sense with
            | Le -> (0.0, infinity)
            | Ge -> (neg_infinity, 0.0)
            | Eq -> (0.0, 0.0)
          in
          (* tighten the slack with the bounds implied by the row over
             the variable box (s = rhs - Σ a_j x_j): a finite box gives
             finite slack bounds, so the dual-feasibility repair below
             can always flip a mis-signed slack instead of giving up *)
          let smin = ref r.rhs and smax = ref r.rhs in
          List.iter
            (fun (j, v) ->
              if v <> 0.0 then begin
                let a = v *. lo.(j) and b = v *. hi.(j) in
                smin := !smin -. Float.max a b;
                smax := !smax -. Float.min a b
              end)
            r.coefs;
          glo.(n + i) <- Float.max slo !smin;
          ghi.(n + i) <- Float.min shi !smax;
          bcol.(i) <- r.rhs)
        rows;
      let status = Array.copy from.w_status in
      let st =
        { m; total; n_real; tab; basis = Array.make m (-1);
          xb = Array.make m 0.0; status; lo = glo; hi = ghi;
          z = Array.make total 0.0; iters = 0 }
      in
      (* Refactorize: Gauss–Jordan the stored basis columns in, choosing
         for each the remaining row with the largest pivot. *)
      let used = Array.make m false in
      let singular = ref false in
      Array.iter
        (fun jb ->
          if not !singular then begin
            let best = ref (-1) and bestv = ref 0.0 in
            for i = 0 to m - 1 do
              if not used.(i) then begin
                let v = Float.abs st.tab.(i).(jb) in
                if v > !bestv then begin
                  bestv := v;
                  best := i
                end
              end
            done;
            if !bestv < 1e-9 then singular := true
            else begin
              let r = !best in
              used.(r) <- true;
              let piv = st.tab.(r).(jb) in
              let col = Array.init m (fun i -> st.tab.(i).(jb)) in
              pivot st ~row:r ~col:jb;
              bcol.(r) <- bcol.(r) /. piv;
              for i = 0 to m - 1 do
                if i <> r && col.(i) <> 0.0 then
                  bcol.(i) <- bcol.(i) -. (col.(i) *. bcol.(r))
              done;
              st.basis.(r) <- jb;
              st.status.(jb) <- Basic
            end
          end)
        from.w_basis;
      if !singular then Warm_fallback "singular-basis"
      else begin
        (* every non-basic variable must rest at a finite bound *)
        let ok = ref true in
        for j = 0 to n_real - 1 do
          if st.status.(j) <> Basic then
            match st.status.(j) with
            | At_lower when glo.(j) = neg_infinity ->
              if ghi.(j) < infinity then st.status.(j) <- At_upper
              else ok := false
            | At_upper when ghi.(j) = infinity ->
              if glo.(j) > neg_infinity then st.status.(j) <- At_lower
              else ok := false
            | _ -> ()
        done;
        if not !ok then Warm_fallback "unbounded-nonbasic"
        else begin
          Array.blit bcol 0 st.xb 0 m;
          for j = 0 to n_real - 1 do
            if st.status.(j) <> Basic then begin
              let v = bound_value st j in
              if v <> 0.0 then
                for i = 0 to m - 1 do
                  st.xb.(i) <- st.xb.(i) -. (st.tab.(i).(j) *. v)
                done
            end
          done;
          let c2 = Array.make total 0.0 in
          Array.blit c 0 c2 0 n;
          set_costs st c2;
          (* repair dual feasibility by flipping mis-signed non-basic
             variables to their opposite bound *)
          let repaired = ref true in
          for j = 0 to n_real - 1 do
            if st.status.(j) <> Basic && st.hi.(j) -. st.lo.(j) > eps then begin
              let flip delta target =
                for i = 0 to m - 1 do
                  st.xb.(i) <- st.xb.(i) -. (st.tab.(i).(j) *. delta)
                done;
                st.status.(j) <- target
              in
              match st.status.(j) with
              | At_lower when st.z.(j) < -.eps ->
                if ghi.(j) < infinity then flip (ghi.(j) -. glo.(j)) At_upper
                else repaired := false
              | At_upper when st.z.(j) > eps ->
                if glo.(j) > neg_infinity then flip (glo.(j) -. ghi.(j)) At_lower
                else repaired := false
              | _ -> ()
            end
          done;
          (* primal phase 2 from the current basis: counts loop entries,
             including the final iteration that only certifies
             optimality — subtract it so a perfect basis round-trip
             reports zero pivots *)
          let finish dual_pivots =
            let iters0 = st.iters in
            match run_phase st ~allowed:n_real ~max_iters with
            | `Limit -> Warm_fallback "pivot-limit"
            | `Unbounded ->
              Warm_ok
                { sol =
                    { status = Unbounded; objective = neg_infinity;
                      x = Array.make n 0.0; iterations = st.iters };
                  pivots = dual_pivots + Stdlib.max 0 (st.iters - iters0 - 1);
                  session = None }
            | `Optimal ->
              let sol = extract_solution st ~c ~n in
              Warm_ok
                { sol;
                  pivots = dual_pivots + Stdlib.max 0 (st.iters - iters0 - 1);
                  session = Some { st; n; smax_iters = max_iters } }
          in
          let primal_feasible () =
            let ok = ref true in
            for i = 0 to m - 1 do
              let bi = st.basis.(i) in
              if st.xb.(i) < st.lo.(bi) -. eps || st.xb.(i) > st.hi.(bi) +. eps
              then ok := false
            done;
            !ok
          in
          if not !repaired then begin
            (* dual feasibility is unrepairable (a mis-signed variable
               whose opposite bound is infinite, typically a Ge/Le
               slack).  The basis is still a valid primal start when xb
               sits within bounds: skip the dual phase and let primal
               phase 2 restore optimality.  Only when primal and dual
               feasibility are both broken must we give up. *)
            if primal_feasible () then finish 0
            else Warm_fallback "dual-infeasible"
          end
          else begin
            match dual_phase st ~pivot_cap with
            | `Cap -> Warm_fallback "pivot-cap"
            | `Dual_unbounded ->
              Warm_ok
                { sol =
                    { status = Infeasible; objective = 0.0;
                      x = Array.make n 0.0; iterations = st.iters };
                  pivots = st.iters;
                  session = None }
            | `Feasible dual_pivots -> finish dual_pivots
          end
        end
      end
    end
  end
