type t = {
  domains : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable job : (int -> unit) option;
  mutable round : int;
  mutable pending : int;
  mutable stop : bool;
  mutable failure : exn option;
  mutable workers : unit Domain.t array;
}

let record_failure t e =
  Mutex.lock t.mutex;
  if t.failure = None then t.failure <- Some e;
  Mutex.unlock t.mutex

let worker t slot =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.stop) && t.round = !last do
      Condition.wait t.start t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      last := t.round;
      let job = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.mutex;
      (try job slot with e -> record_failure t e);
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.finished;
      Mutex.unlock t.mutex
    end
  done

let create ~domains =
  let domains = max 1 domains in
  let t =
    {
      domains;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      job = None;
      round = 0;
      pending = 0;
      stop = false;
      failure = None;
      workers = [||];
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> worker t (i + 1)));
  t

let run t f =
  if t.domains = 1 then f 0
  else begin
    Mutex.lock t.mutex;
    t.job <- Some f;
    t.round <- t.round + 1;
    t.pending <- t.domains - 1;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    (* The caller is slot 0, so every domain including this one does a
       share of the work. *)
    (try f 0 with e -> record_failure t e);
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.finished t.mutex
    done;
    t.job <- None;
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.mutex;
    match failure with Some e -> raise e | None -> ()
  end

let shutdown t =
  if Array.length t.workers > 0 then begin
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let iter ~domains n job =
  let domains = max 1 (min domains n) in
  if domains = 1 then
    for i = 0 to n - 1 do
      job i
    done
  else
    with_pool ~domains (fun pool ->
        run pool (fun slot ->
            let i = ref slot in
            while !i < n do
              job !i;
              i := !i + domains
            done))
