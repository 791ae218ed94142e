(** Technology constants of the energy model (picojoules).

    The absolute values are representative of a ~0.18um embedded part
    (XScale class); every figure in the paper is a {e normalised}
    energy or an ED product, so what matters is the relative scaling
    encoded in {!Cam_energy}: CAM search energy grows with tag width
    and with the number of ways searched, data access with line and
    array size, and the way-memoization scheme pays the link-storage
    overhead on every data-side access. *)

type t = {
  cam_bit_compare_pj : float;
      (** match-line energy per tag bit, per way searched *)
  cam_drive_per_bit_pj : float;
      (** search-line drive per tag bit, per way searched (the drive is
          way-gated on a way-placement access, paper Section 4.2) *)
  data_word_base_pj : float;  (** reading one instruction word, base cost *)
  data_word_per_set_pj : float;
      (** bit-line length growth: added word-read cost per set *)
  line_fill_per_byte_pj : float;  (** writing a refilled line *)
  memory_access_pj : float;
      (** off-chip read of one line (charged to the memory bucket) *)
  link_write_pj : float;  (** writing one way-memoization link *)
  tlb_bit_compare_pj : float;
  tlb_drive_per_bit_pj : float;
  core_rest_pj_per_cycle : float;
      (** pipeline + register files + clock tree: everything outside
          the instruction-memory subsystem and the D-cache *)
  leak_awake_pj_per_line_cycle : float;
      (** leakage of one awake cache line per cycle (used only when a
          configuration enables leakage accounting) *)
  leak_drowsy_factor : float;
      (** drowsy-mode leakage relative to awake (Flautner et al.) *)
  drowsy_wake_pj : float;  (** energy to wake one drowsy line *)
}

val default : t

