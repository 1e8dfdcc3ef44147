include Substrate.Json
