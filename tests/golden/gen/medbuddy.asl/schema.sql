-- Generated star/snowflake schema
-- shape: snowflake

CREATE TABLE "City" (
  "id" CHAR(36) PRIMARY KEY NOT NULL,
  "latitude" DECIMAL(18,6) NOT NULL,
  "longitude" DECIMAL(18,6) NOT NULL,
  "name" VARCHAR(255) NOT NULL
);

CREATE TABLE "Institution" (
  "id" CHAR(36) PRIMARY KEY NOT NULL,
  "code" VARCHAR(255) NOT NULL,
  "name" VARCHAR(255) NOT NULL,
  "latitude" DECIMAL(18,6) NOT NULL,
  "longitude" DECIMAL(18,6) NOT NULL,
  "city" CHAR(36) NOT NULL,
  "type" VARCHAR(255) NOT NULL CHECK ("type" IN ('HealthCentre', 'Hospital')),
  FOREIGN KEY ("city") REFERENCES "City" ("id")
);

CREATE TABLE "Patient" (
  "id" CHAR(36) PRIMARY KEY NOT NULL,
  "nhs_number" INTEGER NOT NULL,
  "age" INTEGER NOT NULL,
  "name" VARCHAR(255) NOT NULL,
  "gender" VARCHAR(255) NOT NULL CHECK ("gender" IN ('Male', 'Female')),
  "residence" CHAR(36) NOT NULL,
  FOREIGN KEY ("residence") REFERENCES "City" ("id")
);

CREATE TABLE "RequestState" (
  "id" CHAR(36) PRIMARY KEY NOT NULL,
  "is_final" BOOLEAN NOT NULL,
  "is_initial" BOOLEAN NOT NULL,
  "name" VARCHAR(255) NOT NULL CHECK ("name" IN ('Booked', 'Held', 'Cancelled'))
);

CREATE TABLE "Time" (
  "id" CHAR(36) PRIMARY KEY NOT NULL,
  "date" DATE NOT NULL,
  "day" INTEGER NOT NULL,
  "month" INTEGER NOT NULL,
  "quarter" INTEGER NOT NULL,
  "semester" INTEGER NOT NULL,
  "year" INTEGER NOT NULL
);

CREATE TABLE "AppointmentRequest" (
  "id" CHAR(36) PRIMARY KEY NOT NULL,
  "institution" CHAR(36) NOT NULL,
  "patient" CHAR(36) NOT NULL,
  "state" CHAR(36) NOT NULL,
  "scheduled_date" CHAR(36) NOT NULL,
  "closed_date" CHAR(36),
  "maximum_response_time" INTEGER NOT NULL,
  "actual_response_time" INTEGER,
  "closed" BOOLEAN NOT NULL,
  FOREIGN KEY ("institution") REFERENCES "Institution" ("id"),
  FOREIGN KEY ("patient") REFERENCES "Patient" ("id"),
  FOREIGN KEY ("state") REFERENCES "RequestState" ("id"),
  FOREIGN KEY ("scheduled_date") REFERENCES "Time" ("id"),
  FOREIGN KEY ("closed_date") REFERENCES "Time" ("id")
);
-- measures of AppointmentRequest (computed, not stored):
--   CountAppointments = COUNT(id)
--   CountCancelledAppointments = COUNT(state = States.Cancelled)
--   CancellationRate = (CountCancelledAppointments / CountAppointments)
--   AvgWaitingTime = AVERAGE(actual_response_time)
--   MinDate = MIN(scheduled_date)
--   MaxDate = MAX(scheduled_date)
