module Engine = Weakset_sim.Engine
module Bus = Weakset_obs.Bus
module Event = Weakset_obs.Event

type t = {
  eng : Engine.t;
  mutable rpc_calls : int;
  mutable rpc_dones : int;
  (* Live fibers by id, so a leak verdict can say who leaked.  A fiber is
     alive from Fiber_spawn until a Run_end whose park is
     Park_done/Park_crash. *)
  fibers : (int, string) Hashtbl.t;
}

let attach eng =
  let t = { eng; rpc_calls = 0; rpc_dones = 0; fibers = Hashtbl.create 32 } in
  Bus.attach (Engine.bus eng) ~name:"run-accounting" (fun ev ->
      match ev.Event.kind with
      | Event.Rpc_call _ -> t.rpc_calls <- t.rpc_calls + 1
      | Event.Rpc_done _ -> t.rpc_dones <- t.rpc_dones + 1
      | Event.Fiber_spawn { fid; fiber } -> Hashtbl.replace t.fibers fid fiber
      | Event.Run_end { fid; park = Event.Park_done | Event.Park_crash; _ } ->
          Hashtbl.remove t.fibers fid
      | _ -> ());
  t

let unmatched_rpcs t = t.rpc_calls - t.rpc_dones

let engine_crashes t =
  List.map
    (fun c -> (c.Engine.crash_fiber, Printexc.to_string c.Engine.crash_exn))
    (Engine.crashes t.eng)

let parked_fibers t =
  if Engine.live_fibers t.eng = 0 then []
  else Hashtbl.fold (fun _ name acc -> name :: acc) t.fibers [] |> List.sort compare
