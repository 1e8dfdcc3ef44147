(** {!Substrate.Json}, the one JSON codec, under the name this library
    and benchsuite refer to it by. *)

include module type of struct
  include Substrate.Json
end
