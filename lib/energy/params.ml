type t = {
  cam_bit_compare_pj : float;
  cam_drive_per_bit_pj : float;
  data_word_base_pj : float;
  data_word_per_set_pj : float;
  line_fill_per_byte_pj : float;
  memory_access_pj : float;
  link_write_pj : float;
  tlb_bit_compare_pj : float;
  tlb_drive_per_bit_pj : float;
  core_rest_pj_per_cycle : float;
  leak_awake_pj_per_line_cycle : float;
  leak_drowsy_factor : float;
  drowsy_wake_pj : float;
}

let default =
  {
    cam_bit_compare_pj = 0.0018;
    cam_drive_per_bit_pj = 0.0005;
    data_word_base_pj = 0.14;
    data_word_per_set_pj = 0.005;
    line_fill_per_byte_pj = 0.15;
    memory_access_pj = 120.0;
    link_write_pj = 0.05;
    tlb_bit_compare_pj = 0.0008;
    tlb_drive_per_bit_pj = 0.004;
    core_rest_pj_per_cycle = 1.6;
    leak_awake_pj_per_line_cycle = 0.0004;
    leak_drowsy_factor = 0.10;
    drowsy_wake_pj = 0.01;
  }

