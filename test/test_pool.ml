open Avp_enum

(* Every index in [0, n) runs exactly once, whatever the domain count,
   including more domains than indices. *)
let test_each_index_once () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Pool.iter ~domains n (fun i -> Atomic.incr hits.(i));
          Array.iteri
            (fun i h ->
              Alcotest.(check int)
                (Printf.sprintf "n=%d domains=%d: index %d" n domains i)
                1 (Atomic.get h))
            hits)
        [ 0; 1; 5; 100 ])
    [ 1; 2; 4 ]

(* One domain is a plain loop: index order, on the caller. *)
let test_one_domain_in_order () =
  let self = Domain.self () in
  let seen = ref [] in
  Pool.iter ~domains:1 10 (fun i ->
      Alcotest.(check bool) "on the calling domain" true
        (Domain.self () = self);
      seen := i :: !seen);
  Alcotest.(check (list int)) "index order" (List.init 10 Fun.id)
    (List.rev !seen)

exception Boom of int

let spin () =
  for k = 1 to 1_000_000 do
    ignore (Sys.opaque_identity k)
  done

(* A job's exception reaches the caller only once no job is running,
   and the next call still works.  Index 0 fails on the calling domain
   while a job on another domain is still running; index 37 fails on a
   spawned domain. *)
let test_exception_joins () =
  List.iter
    (fun (domains, bad) ->
      let running = Atomic.make 0 and elsewhere = Atomic.make false in
      let job i =
        Atomic.incr running;
        Fun.protect
          ~finally:(fun () -> Atomic.decr running)
          (fun () ->
            if i = bad then begin
              while bad = 0 && domains > 1 && not (Atomic.get elsewhere) do
                Domain.cpu_relax ()
              done;
              raise (Boom i)
            end;
            if i mod domains <> 0 then Atomic.set elsewhere true;
            spin ())
      in
      let case = Printf.sprintf "domains=%d, job %d fails" domains bad in
      (match Pool.iter ~domains 100 job with
       | () -> Alcotest.failf "%s: expected Boom" case
       | exception Boom i ->
         let still_running = Atomic.get running in
         Alcotest.(check int) (case ^ ": its exception") bad i;
         Alcotest.(check int) (case ^ ": no job still running") 0
           still_running);
      let sum = Atomic.make 0 in
      Pool.iter ~domains 10 (fun i -> ignore (Atomic.fetch_and_add sum i));
      Alcotest.(check int) (case ^ ": a later call works") 45 (Atomic.get sum))
    [ (1, 37); (2, 0); (2, 37); (4, 0); (4, 37) ]

let test_default_domains_env () =
  let d = Pool.default_domains () in
  Alcotest.(check bool) "at least one domain" true (d >= 1)

let suite =
  [
    Alcotest.test_case "each index once" `Quick test_each_index_once;
    Alcotest.test_case "one domain in order" `Quick test_one_domain_in_order;
    Alcotest.test_case "exception after join" `Quick test_exception_joins;
    Alcotest.test_case "default_domains sane" `Quick test_default_domains_env;
  ]
