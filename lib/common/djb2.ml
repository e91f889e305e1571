(* OCaml ints wrap modulo 2^63, a multiple of 2^32, so the mask is taken
   once at the end.  Four bytes per step: h * 33^4 + c0 * 33^3 + c1 * 33^2
   + c2 * 33 + c3, which shortens the dependency chain through [h]. *)
let bytes h b off len =
  let h = ref h and i = ref off in
  let last4 = off + len - 4 in
  while !i <= last4 do
    let p = !i in
    h :=
      (!h * 1185921)
      + (Char.code (Bytes.unsafe_get b p) * 35937)
      + (Char.code (Bytes.unsafe_get b (p + 1)) * 1089)
      + (Char.code (Bytes.unsafe_get b (p + 2)) * 33)
      + Char.code (Bytes.unsafe_get b (p + 3));
    i := p + 4
  done;
  for p = !i to off + len - 1 do
    h := (!h * 33) + Char.code (Bytes.unsafe_get b p)
  done;
  !h land 0xffff_ffff
